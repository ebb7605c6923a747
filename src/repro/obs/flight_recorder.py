"""Black-box flight recorder: the last N ticks, dumpable and replayable.

A :class:`FlightRecorder` keeps a bounded ring of fully-serialized tick
*frames* — inputs (registered VMs, samples), stage outputs (decisions,
auction results, free shares, wallets) — and writes the whole ring to a
JSON dump when something goes wrong: an ``InvariantViolationError``, an
injected stage crash escaping ``tick()``, or a node tick error caught
by the :class:`~repro.sim.node_manager.NodeManager`.

The dump is *convertible*: :func:`flight_dump_to_trace` rebuilds a
:class:`~repro.checking.trace.Trace` (the PR-4 JSONL scenario format)
from the frames — VM churn and QoS renegotiation are diffed exactly
from the registered-VM maps, per-VM demand levels are approximated from
observed consumption (capped consumption understates true demand, the
one lossy step), and any active fault plan is carried over with its
tick windows shifted to the dump's origin.  The result replays under
``replay()`` with every paper-equation oracle armed and is shrinkable
by ``repro check``'s ddmin machinery — a production crash dump becomes
a test case.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Dict, List, Optional

from repro.fileio import atomic_write

DUMP_VERSION = 1


class FlightRecorder:
    """Bounded ring of serialized ticks; dumps to disk on demand."""

    def __init__(self, max_ticks: int = 64, dump_dir: Optional[str] = None) -> None:
        if max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")
        self.max_ticks = max_ticks
        self.dump_dir = dump_dir
        #: Header facts every dump carries (host shape, engine, plan).
        self.meta: Dict = {}
        self._frames: deque = deque(maxlen=max_ticks)
        self.dumps_written = 0
        self._last_dump_tick: Optional[int] = None
        self._last_dump_path: Optional[str] = None

    def set_meta(self, **kw) -> None:
        self.meta.update(kw)

    def record(self, frame: Dict) -> None:
        self._frames.append(frame)

    @property
    def frames(self) -> List[Dict]:
        return list(self._frames)

    def dump(
        self,
        reason: str,
        violations: Optional[List[str]] = None,
        path: Optional[str] = None,
    ) -> Optional[str]:
        """Write the ring to a JSON file; returns its path.

        Idempotent per tick: a second trigger for the same newest frame
        (e.g. the controller wrapper and the node manager both seeing
        one crash) returns the first dump's path instead of writing a
        sibling.  Returns ``None`` when the ring is empty (a crash
        before the first completed tick leaves nothing to dump).
        """
        if not self._frames:
            return None
        newest = self._frames[-1]["tick"]
        if path is None and self._last_dump_tick == newest:
            return self._last_dump_path
        if path is None:
            safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in reason)
            name = f"flight_{safe}_tick{newest}.json"
            base = self.dump_dir or "."
            os.makedirs(base, exist_ok=True)
            path = os.path.join(base, name)
        payload = {
            "kind": "flight_dump",
            "version": DUMP_VERSION,
            "reason": reason,
            "violations": list(violations or []),
            "meta": dict(self.meta),
            "frames": list(self._frames),
        }
        with atomic_write(path) as fh:
            json.dump(payload, fh, sort_keys=True)
        self.dumps_written += 1
        self._last_dump_tick = newest
        self._last_dump_path = path
        return path

    @staticmethod
    def load(path: str) -> Dict:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("kind") != "flight_dump":
            raise ValueError(f"not a flight-recorder dump: {path}")
        version = payload.get("version")
        if version != DUMP_VERSION:
            raise ValueError(f"unsupported flight dump version {version!r}")
        return payload


# ---------------------------------------------------------------------------
# Dump -> checking trace conversion
# ---------------------------------------------------------------------------


def _shift_fault_plan(plan: Dict, first_tick: int) -> Optional[Dict]:
    """Re-origin a fault plan's tick windows to the dump's first frame.

    A replayed trace starts at tick 0, but the dump's frames start at
    some mid-run tick; every spec window slides left accordingly.
    Windows that closed before the dump began are dropped; a window
    straddling the origin is clamped to start at 0.
    """
    specs = []
    for spec in plan.get("specs", []):
        s = dict(spec)
        start = int(s.get("start_tick", 0)) - first_tick
        end = s.get("end_tick")
        if end is not None:
            end = int(end) - first_tick
            if end <= 0:
                continue  # window fully in the discarded past
        start = max(0, start)
        if end is not None and end <= start:
            continue
        s["start_tick"] = start
        s["end_tick"] = end
        specs.append(s)
    if not specs:
        return None
    return {"seed": plan.get("seed", 0), "specs": specs}


def flight_dump_to_trace(dump: Dict):
    """Rebuild a replayable :class:`~repro.checking.trace.Trace`.

    Deterministic given the dump; demand levels are the one approximate
    reconstruction (``max observed consumption / p_us`` per VM — a
    capped vCPU's true demand may have been higher).
    """
    # Deferred: repro.checking imports repro.core which imports obs
    # config; importing at module level would tie the packages together.
    from repro.checking.trace import Trace

    meta = dump["meta"]
    frames = dump["frames"]
    if not frames:
        raise ValueError("flight dump holds no frames")
    p_us = float(meta["period_s"]) * 1e6
    first_tick = int(frames[0]["tick"])
    plan = meta.get("fault_plan")
    if plan:
        plan = _shift_fault_plan(plan, first_tick)
    header = Trace.make_header(
        seed=int(meta.get("seed", 0)),
        cores=int(meta["num_cpus"]),
        threads_per_core=1,
        fmax_mhz=float(meta["fmax_mhz"]),
        resilience=bool(meta.get("resilience")),
        fault_plan=plan,
        engine=meta.get("engine", "both"),
    )
    events: List[Dict] = []
    live: Dict[str, Dict] = {}  # vm -> {"vfreq": ..., "vcpus": ...}
    for frame in frames:
        registered = frame["registered"]
        for vm in [v for v in live if v not in registered]:
            events.append({"kind": "destroy", "vm": vm})
            del live[vm]
        for vm, info in registered.items():
            vcpus = int(info["vcpus"])
            if vm not in live:
                if vcpus < 1:
                    # Registered but never observed yet: provisioning is
                    # deferred until a frame shows its vCPU count.
                    continue
                events.append({
                    "kind": "provision", "vm": vm,
                    "vcpus": vcpus, "vfreq": float(info["vfreq"]),
                })
                live[vm] = {"vfreq": float(info["vfreq"]), "vcpus": vcpus}
            elif float(info["vfreq"]) != live[vm]["vfreq"]:
                events.append({
                    "kind": "set_vfreq", "vm": vm, "vfreq": float(info["vfreq"]),
                })
                live[vm]["vfreq"] = float(info["vfreq"])
        peak: Dict[str, float] = {}
        for sample in frame["samples"]:
            _path, vm, _vcpu, consumed, _vfreq = sample
            if consumed > peak.get(vm, -1.0):
                peak[vm] = consumed
        for vm in live:
            if vm in peak:
                level = min(1.0, max(0.0, peak[vm] / p_us))
                events.append({
                    "kind": "demand", "vm": vm, "level": round(level, 6),
                })
        events.append({"kind": "tick"})
    return Trace(header=header, events=events)
