"""Deterministic, seeded fault plans for the kernel-surface seam.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus one
seeded RNG.  Each spec names a fault *kind* from the taxonomy below, a
target pattern (an ``fnmatch`` glob over the operation's target string),
a tick window during which it is armed, and a per-opportunity firing
probability — so both **scheduled** faults ("cpu.stat of vm-3 returns
EIO from tick 10 to 20") and **probabilistic** fault mixes ("2 % of all
cap writes fail with EBUSY") are expressed in the same structure, and
the same seed always reproduces the same fault sequence on the same
workload.

Fault taxonomy (``FaultSpec.kind``) and the target string each kind is
matched against:

===============  ==========================  =================================
kind             target                      effect at the seam
===============  ==========================  =================================
``read_error``   cgroup file / dir path      ``read()``/``readdir()`` raises
                                             ``spec.error`` (EIO, ENOENT, ...)
``write_error``  cgroup file path            ``cpu.max`` write raises
                                             ``spec.error`` (EIO, EBUSY, ...);
                                             v1 quota/period pairs can be left
                                             half-applied
``freeze``       cgroup file path            read returns the last-seen
                                             content — a stale/frozen counter
``tid_vanish``   ``tid:<n>``                 ``/proc/<tid>/stat`` raises
                                             ``ProcessLookupError`` (thread
                                             churn between scans)
``tid_reuse``    ``tid:<n>``                 the stat line belongs to another
                                             thread (tid reuse): wrong comm
                                             and core
``freq_error``   ``core:<n>``                ``scaling_cur_freq`` read raises
``clock_jitter`` ``tick``                    the effective monitoring period
                                             is perturbed by up to
                                             ``jitter_frac`` (late/early tick)
``crash``        ``stage:monitor`` /         :class:`ControllerCrash` raised
                 ``stage:enforce``           at the stage boundary
===============  ==========================  =================================

Plans round-trip through JSON (``to_json``/``from_json``, ``save``/
``load``) so chaos drills are reviewable artefacts — the ``--fault-plan``
CLI flag takes exactly this file format.
"""

from __future__ import annotations

import errno
import json
import random
from dataclasses import asdict, dataclass
from fnmatch import fnmatch
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.fileio import atomic_write

#: Every fault kind the injector understands.
FAULT_KINDS: Tuple[str, ...] = (
    "read_error",
    "write_error",
    "freeze",
    "tid_vanish",
    "tid_reuse",
    "freq_error",
    "clock_jitter",
    "crash",
)

#: errno spellings accepted by ``FaultSpec.error``.
ERRNO_BY_NAME = {
    "EIO": errno.EIO,
    "EBUSY": errno.EBUSY,
    "ENOENT": errno.ENOENT,
    "ESRCH": errno.ESRCH,
    "EACCES": errno.EACCES,
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: kind + target glob + window + probability."""

    kind: str
    #: ``fnmatch`` glob over the operation's target string (see the
    #: module table for what each kind matches against).
    target: str = "*"
    #: Tick window [start_tick, end_tick) during which the spec is
    #: armed; ``end_tick=None`` means "forever".  One controller
    #: iteration is one tick (counted at the monitoring pass).
    start_tick: int = 0
    end_tick: Optional[int] = None
    #: Firing probability per matching opportunity (1.0 = always).
    probability: float = 1.0
    #: errno name raised by error kinds.
    error: str = "EIO"
    #: Max relative period perturbation for ``clock_jitter``.
    jitter_frac: float = 0.02

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.start_tick < 0:
            raise ValueError("start_tick must be >= 0")
        if self.end_tick is not None and self.end_tick <= self.start_tick:
            raise ValueError("end_tick must be > start_tick")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.error not in ERRNO_BY_NAME:
            raise ValueError(
                f"unknown errno {self.error!r} (known: {', '.join(ERRNO_BY_NAME)})"
            )
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")

    def active_at(self, tick: int) -> bool:
        return tick >= self.start_tick and (
            self.end_tick is None or tick < self.end_tick
        )

    def matches(self, target: str) -> bool:
        return fnmatch(target, self.target)

    def make_error(self, target: str) -> OSError:
        """The exception this spec injects (typed like the kernel's)."""
        code = ERRNO_BY_NAME[self.error]
        message = f"injected {self.error} on {target}"
        if self.error == "ENOENT":
            return FileNotFoundError(code, message)
        if self.error == "ESRCH":
            return ProcessLookupError(code, message)
        return OSError(code, message)

    def as_dict(self) -> Dict:
        return asdict(self)


class FaultPlan:
    """A seeded, deterministic schedule of faults to inject.

    The plan is consulted once per *opportunity* (one backend operation
    that a spec could apply to); probabilistic specs draw from the
    plan's own ``random.Random(seed)``, so a given seed and workload
    reproduce the exact same fault sequence.  An empty plan is free:
    the injector fast-paths straight to the real backend and the
    report stream is bit-identical (proved in the injector tests).
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *, seed: int = 0) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._kinds: FrozenSet[str] = frozenset(s.kind for s in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def has(self, kind: str) -> bool:
        return kind in self._kinds

    def reset(self) -> None:
        """Rewind the RNG so the same plan replays identically."""
        self._rng = random.Random(self.seed)

    def draw(self, kind: str, target: str, tick: int) -> Optional[FaultSpec]:
        """The spec that fires for this opportunity, or ``None``.

        Specs are consulted in declaration order; the first armed,
        matching spec whose probability draw succeeds wins.
        """
        if kind not in self._kinds:
            return None
        for spec in self.specs:
            if spec.kind != kind:
                continue
            if not spec.active_at(tick) or not spec.matches(target):
                continue
            if spec.probability >= 1.0 or self._rng.random() < spec.probability:
                return spec
        return None

    def jitter_draw(self) -> float:
        """Symmetric unit draw for clock jitter (deterministic)."""
        return self._rng.uniform(-1.0, 1.0)

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [s.as_dict() for s in self.specs]},
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        data = json.loads(payload)
        specs = [FaultSpec(**spec) for spec in data.get("specs", [])]
        return cls(specs, seed=int(data.get("seed", 0)))

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- canned plans ----------------------------------------------------------

    @classmethod
    def standard_mix(
        cls,
        *,
        seed: int = 0,
        vanish_vm: str = "*",
        vanish_window: Tuple[int, int] = (5, 15),
        crash_tick: Optional[int] = None,
    ) -> "FaultPlan":
        """The fault mix the resilience bench runs against.

        Transient read/write errors at a few percent, a frozen counter
        window, clock jitter on every tick, one VM whose vCPU threads
        vanish long enough to force degraded mode, and (optionally) one
        injected controller crash at the monitoring boundary.
        """
        specs = [
            FaultSpec("read_error", "*/cpu.stat", probability=0.05, error="EIO"),
            FaultSpec("write_error", "*/cpu.max", probability=0.05, error="EBUSY"),
            FaultSpec(
                "freeze",
                "*/cpu.stat",
                start_tick=vanish_window[1] + 2,
                end_tick=vanish_window[1] + 5,
                probability=0.5,
            ),
            FaultSpec("clock_jitter", "tick", jitter_frac=0.02),
            FaultSpec(
                "tid_vanish",
                "tid:*",
                start_tick=vanish_window[0],
                end_tick=vanish_window[1],
                probability=0.25,
            ),
        ]
        if vanish_vm != "*":
            # Pin the vanish fault to one VM's vCPU reads instead:
            # read errors on its cgroup.threads keep it unobservable.
            specs[-1] = FaultSpec(
                "read_error",
                f"*/{vanish_vm}/vcpu*",
                start_tick=vanish_window[0],
                end_tick=vanish_window[1],
                error="EIO",
            )
        if crash_tick is not None:
            specs.append(
                FaultSpec(
                    "crash",
                    "stage:monitor",
                    start_tick=crash_tick,
                    end_tick=crash_tick + 1,
                )
            )
        return cls(specs, seed=seed)
