"""The observability hub: one object a controller carries (or not).

:class:`Observability` owns the tracer, the decision ledger and the
flight recorder, and translates each finished
:class:`~repro.core.controller.ControllerReport` into all three
(``on_tick``).  The ledger and flight frame share the per-vCPU rows of
:func:`~repro.obs.ledger.decision_rows`, which billing and the SLO
plane read too.  The controller's hot loop stays
untouched: with no hub attached a tick pays exactly one ``is None``
check, and with a hub attached the stages still run unmodified — the
hub works *post hoc* from the report, the stage timings the controller
already measures, and the controller's own registries.  Report streams
are therefore bit-identical with the hub on or off
(``tests/obs/test_transparency.py``).

Attach either declaratively (``ControllerConfig.observability``) or at
runtime::

    from repro.obs import Observability, ObsConfig
    obs = Observability.attach(controller, ObsConfig(out_dir="obs-out"))
    ...
    print(obs.ledger.records[-1])

Dump triggers (all routed here):

* ``Observability.on_violation`` — from ``_finish`` just before an
  ``InvariantViolationError`` propagates;
* ``Observability.on_tick_error`` — from the ``tick()`` wrapper when
  any other exception (e.g. an injected ``ControllerCrash``) escapes;
* ``Observability.on_node_error`` — from ``NodeManager._record_error``
  (idempotent with the above: one dump per crashing tick).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, TYPE_CHECKING

from repro.obs.config import ObsConfig
from repro.obs.flight_recorder import FlightRecorder
from repro.obs.jsonl import EventLog
from repro.obs.ledger import decision_rows
from repro.obs.logging import get_logger
from repro.obs.tracing import JsonlSink, RingSink, Tracer, write_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import ControllerReport, VirtualFrequencyController

log = get_logger("repro.obs")

#: Paper stage order (Fig. 2), matching ``StageTimings`` attributes.
STAGES = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")


class Observability:
    """Tracer + ledger + flight recorder behind one ``on_tick``."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        cfg = config if config is not None else ObsConfig()
        self.config = cfg
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
        self.ring: Optional[RingSink] = None
        self.tracer: Optional[Tracer] = None
        if cfg.tracing:
            self.ring = RingSink(cfg.span_ring_size)
            sinks = [self.ring]
            if cfg.out_dir:
                sinks.append(JsonlSink(os.path.join(cfg.out_dir, "spans.jsonl")))
            self.tracer = Tracer(sinks)
        self.ledger: Optional[EventLog] = None
        if cfg.ledger:
            path = (
                os.path.join(cfg.out_dir, "ledger.jsonl") if cfg.out_dir else None
            )
            self.ledger = EventLog(cfg.ledger_ring_ticks, path=path)
        self.recorder: Optional[FlightRecorder] = None
        if cfg.flight_recorder_ticks:
            self.recorder = FlightRecorder(
                cfg.flight_recorder_ticks, dump_dir=cfg.out_dir
            )
        self._prev_wallets: Dict[str, float] = {}
        #: Last-known observed vCPU count per VM (so a frame captured
        #: while a VM is occluded still records its true shape).
        self._vm_vcpus: Dict[str, int] = {}

    # -- wiring -----------------------------------------------------------------

    @classmethod
    def attach(
        cls,
        controller: "VirtualFrequencyController",
        config: Optional[ObsConfig] = None,
    ) -> "Observability":
        """Attach a hub to an already-built controller (runtime wiring)."""
        obs = cls(config)
        obs.bind(controller)
        controller.obs = obs
        return obs

    def bind(self, controller: "VirtualFrequencyController") -> None:
        """Capture the host facts every flight dump needs as a header."""
        self._prev_wallets = controller.ledger.wallets()
        if self.recorder is None:
            return
        plan = getattr(controller.backend, "plan", None)
        self.recorder.set_meta(
            num_cpus=controller.num_cpus,
            fmax_mhz=controller.fmax_mhz,
            period_s=controller.config.period_s,
            engine=controller.config.engine,
            resilience=controller.resilience is not None,
            fault_plan=(
                {"seed": plan.seed, "specs": [s.as_dict() for s in plan.specs]}
                if plan is not None else None
            ),
            seed=getattr(plan, "seed", 0),
        )

    # -- the per-tick hook -------------------------------------------------------

    def on_tick(
        self,
        controller: "VirtualFrequencyController",
        report: "ControllerReport",
        tick: int,
    ) -> None:
        """Fold one finished tick into spans, ledger and flight ring."""
        samples = report.samples
        vcpus_by_vm: Dict[str, int] = {}
        for s in samples:
            vcpus_by_vm[s.vm_name] = vcpus_by_vm.get(s.vm_name, 0) + 1
        for vm, n in vcpus_by_vm.items():
            self._vm_vcpus[vm] = n

        purchased = report.auction.purchased if report.auction else {}
        spent = report.auction.spent_per_vm if report.auction else {}
        market_left = report.auction.market_left if report.auction else 0.0
        rounds = report.auction.rounds if report.auction else 0

        if self.ledger is not None:
            self.ledger.append({
                "kind": "tick",
                "meta": self._build_meta(
                    controller, report, tick, spent, market_left, rounds
                ),
                "decisions": decision_rows(controller, report),
            })
        if self.recorder is not None:
            self.recorder.record(self._build_frame(
                controller, report, tick, decision_rows(controller, report),
                market_left, rounds,
            ))
        if self.tracer is not None:
            self._emit_spans(
                controller, report, tick, vcpus_by_vm, purchased, spent
            )
        self._prev_wallets = report.wallets

    # -- ledger record construction ---------------------------------------------

    def _build_meta(self, controller, report, tick, spent, market_left, rounds):
        cfg = controller.config
        return {
            "tick": tick,
            "t": report.t,
            "engine": cfg.engine,
            "p_us": cfg.period_s * 1e6,
            "fmax_mhz": controller.fmax_mhz,
            "enforcement_period_us": cfg.enforcement_period_us,
            "market_initial": report.market_initial,
            "market_left": market_left,
            "rounds": rounds,
            "freely_distributed": report.freely_distributed,
            "wallets_before": dict(self._prev_wallets),
            "wallets_after": dict(report.wallets),
            "spent_per_vm": dict(spent),
            # Recorded whether or not a billing engine is attached, so
            # the ledger stream is byte-identical billing on vs. off
            # and the billing oracle can always resolve tenancy.
            "tenants": dict(controller._vm_tenant),
        }

    # -- flight frame construction ------------------------------------------------

    def _build_frame(
        self, controller, report, tick, decisions, market_left, rounds
    ) -> Dict:
        registered = {
            vm: {"vfreq": vfreq, "vcpus": self._vm_vcpus.get(vm, 0)}
            for vm, vfreq in controller._vm_vfreq.items()
        }
        return {
            "tick": tick,
            "t": report.t,
            "registered": registered,
            "samples": [
                [s.cgroup_path, s.vm_name, s.vcpu_index,
                 s.consumed_cycles, s.vfreq_mhz]
                for s in report.samples
            ],
            "decisions": decisions,
            "allocations": dict(report.allocations),
            "free_shares": dict(report.free_shares),
            "degraded": dict(report.degraded),
            "wallets": dict(report.wallets),
            "market_initial": report.market_initial,
            "market_left": market_left,
            "rounds": rounds,
            "freely_distributed": report.freely_distributed,
            "timings": {
                stage: getattr(report.timings, stage) for stage in STAGES
            },
        }

    # -- span synthesis ------------------------------------------------------------

    def _emit_spans(
        self, controller, report, tick, vcpus_by_vm, purchased, spent
    ) -> None:
        tracer = self.tracer
        timings = report.timings
        total_us = timings.total * 1e6
        end_us = tracer.now_us()
        start_us = end_us - total_us
        market_left = report.auction.market_left if report.auction else 0.0
        root = tracer.record(
            "tick",
            trace_id=tick,
            parent_id=None,
            start_us=start_us,
            duration_us=total_us,
            attrs={
                "t": report.t,
                "engine": controller.config.engine,
                "vcpus": len(report.samples),
                "vms": len(vcpus_by_vm),
                "market_initial": report.market_initial,
                "freely_distributed": report.freely_distributed,
                "degraded": len(report.degraded),
            },
        )
        stage_attrs = {
            "monitor": {"samples": len(report.samples)},
            "estimate": {"decisions": len(report.decisions)},
            "credits": {"wallets": len(report.wallets)},
            "auction": {
                "market_initial": report.market_initial,
                "market_left": market_left,
                "rounds": report.auction.rounds if report.auction else 0,
                "cycles_sold": report.market_initial - market_left
                if report.auction else 0.0,
            },
            "distribute": {
                "freely_distributed": report.freely_distributed,
                "recipients": len(report.free_shares),
            },
            "enforce": {
                "allocations": len(report.allocations),
                "degraded": len(report.degraded),
            },
        }
        cursor = start_us
        for stage in STAGES:
            dur_us = getattr(timings, stage) * 1e6
            tracer.record(
                f"stage:{stage}",
                trace_id=tick,
                parent_id=root.span_id,
                start_us=cursor,
                duration_us=dur_us,
                attrs=stage_attrs[stage],
            )
            cursor += dur_us
        if not self.config.per_vcpu_spans:
            return
        vm_spans: Dict[str, int] = {}
        for vm, count in vcpus_by_vm.items():
            span = tracer.record(
                f"vm:{vm}",
                trace_id=tick,
                parent_id=root.span_id,
                start_us=start_us,
                duration_us=0.0,
                attrs={
                    "vcpus": count,
                    "wallet": report.wallets.get(vm, 0.0),
                    "credits_spent": spent.get(vm, 0.0),
                },
            )
            vm_spans[vm] = span.span_id
        for s in report.samples:
            d = report.decisions.get(s.cgroup_path)
            tracer.record(
                f"vcpu:{s.vm_name}/{s.vcpu_index}",
                trace_id=tick,
                parent_id=vm_spans[s.vm_name],
                start_us=start_us,
                duration_us=0.0,
                attrs={
                    "consumed": s.consumed_cycles,
                    "estimate": d.estimate_cycles if d is not None else None,
                    "allocation": report.allocations.get(s.cgroup_path),
                    "purchased": purchased.get(s.cgroup_path, 0.0),
                },
            )

    # -- dump triggers -------------------------------------------------------------

    def on_violation(
        self, controller, report, violations, tick
    ) -> Optional[str]:
        """Invariant violation: log it and dump the black box."""
        log.error(
            "invariant violation at tick %d: %s",
            tick, "; ".join(str(v) for v in violations),
        )
        if self.recorder is None:
            return None
        path = self.recorder.dump(
            "invariant_violation", [str(v) for v in violations]
        )
        if path:
            log.warning("flight recorder dumped %d tick(s) to %s",
                        len(self.recorder.frames), path)
        return path

    def on_tick_error(self, controller, exc, tick) -> Optional[str]:
        """Any non-invariant exception escaping ``tick()``."""
        log.error("controller tick %d raised %s: %s",
                  tick, type(exc).__name__, exc)
        if self.recorder is None:
            return None
        path = self.recorder.dump(f"tick_error_{type(exc).__name__}", [str(exc)])
        if path:
            log.warning("flight recorder dumped %d tick(s) to %s",
                        len(self.recorder.frames), path)
        return path

    def on_node_error(self, node_id: str, exc) -> Optional[str]:
        """Node-manager level trigger (idempotent with the tick wrapper)."""
        if self.recorder is None:
            return None
        return self.recorder.dump(f"node_error_{node_id}", [str(exc)])

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        """Flush sinks; write the Chrome trace export when file-backed."""
        if self.tracer is not None:
            if self.config.out_dir and self.ring is not None and self.ring.spans:
                write_chrome_trace(
                    self.ring.spans,
                    os.path.join(self.config.out_dir, "trace_chrome.json"),
                )
            self.tracer.close()
        if self.ledger is not None:
            self.ledger.close()
