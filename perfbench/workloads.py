"""The three benchmark workloads.

Each workload builds the program through its public API at default
settings, drives it one control period (1 s of simulated time) at a
time, and times each period with ``time.perf_counter``.  Work done only
for measurement -- the guarantee audit that reads simulator state, the
operation counts, installing or removing trace wrappers -- happens
between the timed segments of a period and is never part of its time.

* ``host-dense``  -- one large host through ``Scenario``/``Simulation``.
* ``cluster-wide`` -- ``ClusterSimulation`` of small hosts with every
  observer plane, a rebalancer and seeded churn.
* ``fleet-churn`` -- the ``chaos_churn_xl`` fleet (1000 nodes, 50k VMs).

Every input is generated from the workload seed.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import calibrate
from gate import GateFailure, PlanOracleGate, check_report_streams
from tracer import SpanRecorder

#: Periods whose operation counts and guarantee audit feed the
#: deterministic metrics; every run times at least this many periods.
AUDITED_PERIODS = 100

#: A vCPU "got" its guarantee when it received at least ``G - TOL``
#: CPU-seconds: ``cpu.max`` quotas are rounded to whole microseconds per
#: 100 ms enforcement period, so up to ~5 us per period is rounding.
GUARANTEE_TOL_S = 1e-5

#: The controller stages ``ControllerReport.timings`` times.
STAGES = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")


class _Stop(Exception):
    """Ends a callback-driven run once enough periods were measured."""


@dataclass
class Measurement:
    """What one workload run produced (timings and audited counts)."""

    period_s: List[float] = field(default_factory=list)
    #: Calibration samples: one before the first period and one after
    #: each period (see ``calibrate``).
    ref_s: List[float] = field(default_factory=list)
    traced: List[bool] = field(default_factory=list)
    #: VMs under management in each timed period.
    vms: List[int] = field(default_factory=list)
    #: Deterministic counters summed over the audited periods.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Stage wall times from ``report.timings``, summed over hosts, one
    #: dict per audited period.
    stage_s: List[Dict[str, float]] = field(default_factory=list)
    #: Peak resident memory when the audited periods end (a fixed amount
    #: of work, unlike the time-bounded rest of the run).
    peak_rss_mb: float = 0.0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def audited_periods_done(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- demand mix ------------------------------------------------------------------


class DemandMix:
    """Seeded per-VM workloads: the paper's benchmarks plus bursty demand.

    Kinds are dealt from shuffled blocks of :data:`KINDS`, so every run
    has the same 40/20/40 compress/openssl/bursty proportions and the
    seed only decides which VM gets which kind, start offsets, dip and
    burst timing.  Work pools are sized so no benchmark finishes within
    any run; the bursty VMs switch on and off every few seconds, so some
    vCPUs sit above their guarantee and some below it in every period.
    """

    KINDS = ("compress", "compress", "openssl", "bursty", "bursty")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._block: List[str] = []

    def make(self, vcpus: int):
        from repro.workloads.compress7zip import Compress7Zip
        from repro.workloads.openssl_ import OpenSSLSpeed
        from repro.workloads.synthetic import BurstyWorkload

        rng = self.rng
        if not self._block:
            self._block = list(self.KINDS)
            rng.shuffle(self._block)
        kind = self._block.pop()
        start = rng.uniform(0.0, 3.0)
        if kind == "compress":
            return Compress7Zip(
                vcpus,
                iterations=1_000_000,
                start_time=start,
                dip_period=rng.uniform(15.0, 35.0),
                dip_duration=rng.uniform(2.0, 5.0),
            )
        if kind == "openssl":
            return OpenSSLSpeed(vcpus, iterations=1_000_000, start_time=start)
        return BurstyWorkload(
            vcpus,
            mean_on=rng.uniform(2.0, 8.0),
            mean_off=rng.uniform(3.0, 12.0),
            horizon=100_000.0,
            start_time=start,
            seed=rng.randrange(2**31),
        )


# -- guarantee audit ---------------------------------------------------------------


class GuaranteeAudit:
    """Eq. 2 delivery read from the simulated scheduler, per vCPU-period.

    After every sub-step the audit adds each vCPU's demanded and
    received CPU time (``SchedEntity.demand`` / ``.allocated``); at the
    end of the period a vCPU that demanded at least its guarantee
    ``period * F_v / F_max`` but received less is a miss.
    """

    def __init__(self) -> None:
        self.demanding = 0
        self.missed = 0
        self._acc: Dict[tuple, List[float]] = {}

    def sample(self, hosts, dt: float) -> None:
        acc = self._acc
        for node, vms in hosts:
            fmax = node.spec.fmax_mhz
            for vm in vms:
                share = vm.template.vfreq_mhz / fmax
                for vcpu in vm.vcpus:
                    ent = vcpu.entity
                    row = acc.get((vm.name, vcpu.index))
                    if row is None:
                        row = acc[(vm.name, vcpu.index)] = [0.0, 0.0, share]
                    row[0] += min(ent.demand, 1.0) * dt
                    row[1] += ent.allocated

    def close_period(self, period_s: float) -> None:
        for demanded, got, share in self._acc.values():
            guarantee = period_s * share
            if demanded >= guarantee:
                self.demanding += 1
                if got < guarantee - GUARANTEE_TOL_S:
                    self.missed += 1
        self._acc = {}


# -- controller workloads -------------------------------------------------------------


class ControllerWorkload:
    """What the two workloads that run real controllers share."""

    name = ""
    #: Periods of the default build compared against the scalar replica.
    gate_periods = 5
    #: Most periods one run times.  ``--seconds`` bounds a run too, but
    #: on a machine fast enough to reach this first every run does the
    #: same work (the program's heap, and with it its GC pauses, grows
    #: with the periods run).
    max_periods = AUDITED_PERIODS

    def __init__(self, seed: int, *, tiny: bool = False, engine: Optional[str] = None):
        self.seed = seed
        self.tiny = tiny
        #: ``None`` keeps the program's default engine; the gate replica
        #: passes ``"scalar"``.
        self.engine = engine
        self.report_log: Optional[List[Dict[str, object]]] = []
        self.audit: Optional[GuaranteeAudit] = None
        self.m = Measurement()
        self.periods_run = 0
        self.counting = False

    def controller_config(self):
        if self.engine is None:
            return None
        from repro.core.config import ControllerConfig

        return ControllerConfig.paper_evaluation(engine=self.engine)

    # subclass surface
    def build(self) -> None: ...
    def close(self) -> None: ...
    def runtimes(self) -> Dict[str, tuple]: ...  # host -> (node, hypervisor, controller)
    def period(self, rec: Optional[SpanRecorder]) -> float: ...
    def install_tracing(self, rec: SpanRecorder) -> None: ...
    def vms_managed(self) -> int: ...
    def latest_reports(self) -> Dict[str, object]: ...
    def tick_errors(self) -> Dict[str, BaseException]: ...

    def setup(self) -> None:
        """Build, deploy, attach planes, then one warm-up period."""
        self.build()
        self.run_period(None)

    def run_period(self, rec: Optional[SpanRecorder]) -> float:
        seconds = self.period(rec)
        self.periods_run += 1
        if self.report_log is not None:
            self.report_log.append(self.latest_reports())
        return seconds

    def gate(self) -> None:
        oracle = type(self)(self.seed, tiny=self.tiny, engine="scalar")
        oracle.setup()
        try:
            while self.periods_run < self.gate_periods:
                self.run_period(None)
            while oracle.periods_run < self.gate_periods:
                oracle.run_period(None)
            check_report_streams(self.report_log, oracle.report_log)
        finally:
            oracle.close()
        self.report_log = None

    def measure(self, seconds: float, trace: bool) -> Measurement:
        """Time periods until ``seconds`` of host time have been measured
        or :attr:`max_periods` ran, but at least :data:`AUDITED_PERIODS`.
        With ``trace`` every odd period runs with the layer wrappers
        installed.  Calibration samples are taken between periods."""
        m = self.m
        rec = SpanRecorder() if trace else None
        self.recorder = rec
        self.audit = GuaranteeAudit()
        self.begin_counts()
        m.ref_s.append(calibrate.sample())
        elapsed = 0.0
        k = 0
        while k < AUDITED_PERIODS or (elapsed < seconds and k < self.max_periods):
            traced = trace and k % 2 == 1
            if traced:
                rec.period = k
                self.install_tracing(rec)
            spent = self.run_period(rec if traced else None)
            if traced:
                rec.unwrap_all()
            m.ref_s.append(calibrate.sample())
            m.period_s.append(spent)
            m.traced.append(traced)
            m.vms.append(self.vms_managed())
            elapsed += spent
            k += 1
            if k == AUDITED_PERIODS:
                self.end_counts()
                self.audit = None
                m.audited_periods_done()
        self.check_outputs()
        return m

    def audit_substep(self, dt: float) -> None:
        if self.audit is not None:
            self.audit.sample(
                [(node, hv.vms) for node, hv, _ in self.runtimes().values()], dt
            )

    def close_audit(self) -> None:
        if self.audit is not None:
            self.audit.close_period(2 * self.dt)
            self.audited_period()

    def count(self, key: str, value: float = 1) -> None:
        """Add to an audited count while the audited periods run."""
        if self.counting:
            self.m.add(key, value)

    def _error_counts(self) -> Dict[str, int]:
        return {
            host: ctrl.backend.stats.read_errors + ctrl.backend.stats.write_errors
            for host, (_, _, ctrl) in self.runtimes().items()
        }

    def backend_totals(self) -> Dict[str, int]:
        from repro.core.backend import BackendStats

        total = BackendStats()
        for _, _, ctrl in self.runtimes().values():
            total = total + ctrl.backend.stats
        return total.as_dict()

    def begin_counts(self) -> None:
        self.counting = True
        self._clock = {host: node.clock_s for host, (node, _, _) in self.runtimes().items()}
        self._errors = self._error_counts()
        self._backend0 = self.backend_totals()

    def audited_period(self) -> None:
        """Per-period operation counts (outside the timed segments).

        A host tick failed when it raised (the manager's
        ``last_errors``) or its backend counted a read or write error.
        """
        m = self.m
        m.add("periods", 1)
        steps = 0
        for host, (node, _, _) in self.runtimes().items():
            steps += round((node.clock_s - self._clock.get(host, 0.0)) / self.dt)
            self._clock[host] = node.clock_s
        m.add("sim.node_steps", steps)
        failed = set(self.tick_errors())
        errors = self._error_counts()
        failed.update(h for h, n in errors.items() if n != self._errors.get(h, 0))
        self._errors = errors
        reports = self.latest_reports()
        m.add("ops.host_ticks", len(reports))
        m.add("ops.host_tick_failures", len(failed))
        m.add("sim.node_manager.node_errors", len(self.tick_errors()))
        self.count_reports(reports[h] for h in sorted(reports))

    def check_outputs(self) -> None:
        """Eq. 7 admission must hold on every host after the run."""
        for host, (node, hv, _) in self.runtimes().items():
            if hv.committed_mhz() > node.spec.capacity_mhz + 1e-9:
                raise GateFailure(f"{self.name}: Eq. 7 admission violated on {host}")

    def end_counts(self) -> None:
        self.counting = False
        self.m.add("guarantee.demanding", self.audit.demanding)
        self.m.add("guarantee.missed", self.audit.missed)
        after = self.backend_totals()
        for key, value in after.items():
            self.m.add(f"backend.{key}", value - self._backend0[key])

    def count_reports(self, reports) -> None:
        m = self.m
        stages = dict.fromkeys(STAGES, 0.0)
        m.stage_s.append(stages)
        for report in reports:
            m.add("core.reports", 1)
            m.add("core.market_initial", report.market_initial)
            if report.auction is not None:
                m.add("core.market_left", report.auction.market_left)
            else:
                m.add("core.market_left", report.market_initial)
            for stage in STAGES:
                stages[stage] += getattr(report.timings, stage)


def _wrap_backend(rec: SpanRecorder, backend) -> None:
    rec.wrap(backend, "read_vcpu_samples", "core.backend.sample")
    rec.wrap(backend, "sample_all", "core.backend.sample")
    rec.wrap(backend, "write_caps", "core.backend.apply")
    rec.wrap(backend, "apply_caps", "core.backend.apply")


def _timed(rec: Optional[SpanRecorder], name: str, fn: Callable[[], object]) -> float:
    if rec is not None:
        rec.begin(name)
    t0 = time.perf_counter()
    try:
        fn()
    finally:
        spent = time.perf_counter() - t0
        if rec is not None:
            rec.end()
    return spent


class HostDense(ControllerWorkload):
    """One large host near its Eq. 7 capacity, no planes attached."""

    name = "host-dense"
    max_periods = 250

    def build(self) -> None:
        from repro.hw.nodespecs import NodeSpec
        from repro.sim.scenario import Scenario, VMGroup
        from repro.virt.template import LARGE, MEDIUM, SMALL

        cores = 8 if self.tiny else 64
        spec = NodeSpec(
            name="dense",
            cpu_model=f"2x {cores}-core SMT host",
            sockets=2,
            cores_per_socket=cores,
            threads_per_core=2,
            fmax_mhz=2400.0,
            fmin_mhz=1200.0,
            memory_mb=1024 * 1024,
            freq_jitter_mhz=25.0,
        )
        # The paper's 250:50:100 small/medium/large mix, as many whole
        # 5:1:2 units as fit in 97% of the Eq. 7 capacity.
        unit_mhz = 5 * SMALL.demand_mhz + MEDIUM.demand_mhz + 2 * LARGE.demand_mhz
        units = int(0.97 * spec.capacity_mhz // unit_mhz)
        mix = DemandMix(self.seed)
        factory = lambda template, start: mix.make(template.vcpus)  # noqa: E731
        kwargs = {}
        config = self.controller_config()
        if config is not None:
            kwargs["controller_config"] = config
        scenario = Scenario(
            name=self.name,
            node_spec=spec,
            groups=[
                VMGroup(SMALL, 5 * units, factory),
                VMGroup(MEDIUM, units, factory),
                VMGroup(LARGE, 2 * units, factory),
            ],
            duration=1.0,
            seed=self.seed,
            **kwargs,
        )
        self.sim = scenario.build(controlled=True)
        self.dt = self.sim.dt
        self.controller = self.sim.controller
        self.n_vms = len(self.sim.hypervisor.vms)

    def close(self) -> None:
        self.sim = self.controller = None

    def runtimes(self):
        return {"host": (self.sim.node, self.sim.hypervisor, self.controller)}

    def vms_managed(self) -> int:
        return self.n_vms

    def latest_reports(self):
        return {"host": self.controller.reports[-1]}

    def tick_errors(self):
        return {}  # Simulation.run has no barrier: a failing tick raises

    def period(self, rec):
        sim = self.sim
        # Two dt = 0.5 s sub-steps; the controller ticks at the end of
        # the second.
        spent = _timed(rec, "sim.harness", lambda: sim.run(sim.dt))
        self.audit_substep(sim.dt)
        spent += _timed(rec, "sim.harness", lambda: sim.run(sim.dt))
        self.audit_substep(sim.dt)
        self.close_audit()
        return spent

    def install_tracing(self, rec):
        rec.wrap(self.sim.node, "step", "sim.node_step")
        rec.wrap(self.controller, "tick", "core.controller")
        _wrap_backend(rec, self.controller.backend)


# -- cluster-wide ------------------------------------------------------------------


class ClusterWide(ControllerWorkload):
    """Small hosts with every plane, a rebalancer and ~2% churn a period."""

    name = "cluster-wide"
    max_periods = 120
    #: At 256 hosts one period with every plane took ~0.85 s on the
    #: 2-core development box, too slow for the runs the benchmark needs
    #: (see WORKLOADS.md); 128 keeps every layer at ~0.2 s a period.
    hosts_full = 128
    hosts_tiny = 6
    vms_per_host = 2
    #: Poisson means, as a share of the initial VM count, per period.
    arrival_share = 0.01
    departure_share = 0.01
    #: Probability of one operator-initiated migration per period.
    migration_prob = 0.5

    def build(self) -> None:
        from repro.billing.meter import BillingEngine
        from repro.hw.cluster import Cluster
        from repro.hw.nodespecs import NodeSpec
        from repro.obs.hub import Observability
        from repro.obs.slo import SLOPlane
        from repro.placement.evaluator import Placement
        from repro.placement.request import PlacementRequest
        from repro.rebalance import RebalanceLoop
        from repro.sim.cluster_engine import ClusterSimulation
        from repro.virt.template import SMALL

        spec = NodeSpec(
            name="small",
            cpu_model="1x 2-core SMT host",
            sockets=1,
            cores_per_socket=2,
            threads_per_core=2,
            fmax_mhz=2400.0,
            fmin_mhz=1200.0,
            memory_mb=16 * 1024,
            freq_jitter_mhz=25.0,
        )
        hosts = self.hosts_tiny if self.tiny else self.hosts_full
        self.cluster = Cluster.homogeneous(spec, hosts, prefix="host")
        self.template = SMALL
        self.loop = RebalanceLoop(seed=self.seed)
        self.sim = ClusterSimulation(
            self.cluster,
            controller_config=self.controller_config(),
            seed=self.seed,
            rebalancer=self.loop,
        )
        self.dt = self.sim.dt
        self.mix = DemandMix(self.seed)
        self.churn_rng = np.random.default_rng(self.seed)
        self.host_of: Dict[str, str] = {}
        self.next_vm = 0
        placement = Placement(cluster=self.cluster)
        for node in self.cluster:
            for _ in range(self.vms_per_host):
                name = self._new_name()
                placement.assign(node.node_id, PlacementRequest(name, SMALL))
                self.host_of[name] = node.node_id
        self.sim.deploy(placement, lambda req: self.mix.make(req.template.vcpus))
        self.initial_vms = len(self.host_of)
        for node_id, runtime in self.sim.runtimes.items():
            Observability.attach(runtime.controller)
            BillingEngine.attach(runtime.controller, node_id=node_id)
        self.slo = SLOPlane()
        self.slo_ticks = 0
        self.migrations_seen = 0
        self.failed_migrations = 0

    def _new_name(self) -> str:
        name = f"vm-{self.next_vm}"
        self.next_vm += 1
        return name

    def close(self) -> None:
        self.sim.node_manager.close()
        self.slo.close()
        self.loop.close()
        for runtime in self.sim.runtimes.values():
            runtime.controller.obs.close()

    def runtimes(self):
        return {
            host: (r.node, r.hypervisor, r.controller)
            for host, r in self.sim.runtimes.items()
        }

    def vms_managed(self) -> int:
        return len(self.host_of)

    def latest_reports(self):
        return dict(self.sim.node_manager.last_reports)

    def tick_errors(self):
        return self.sim.node_manager.last_errors

    # -- churn --------------------------------------------------------------

    def _loads(self):
        """(VMs migrating, committed plus in-flight MHz per host), read
        from hypervisors and the public migration events."""
        now = self.sim.t
        busy = set()
        load = {
            node_id: runtime.hypervisor.committed_mhz()
            for node_id, runtime in self.sim.runtimes.items()
        }
        for ev in reversed(self.sim.migrations):
            if ev.t + ev.duration_s + self.sim.dt < now:
                break
            busy.add(ev.vm_name)
            load[ev.target] += self.template.demand_mhz
        return busy, load

    def _least_loaded(self, load: Dict[str, float], exclude: str = "") -> Optional[str]:
        demand = self.template.demand_mhz
        best = None
        for node_id, runtime in self.sim.runtimes.items():
            if node_id == exclude or load[node_id] + demand > runtime.node.spec.capacity_mhz:
                continue
            if best is None or load[node_id] < load[best]:
                best = node_id
        return best

    def _draw_vm(self, busy) -> Optional[str]:
        candidates = sorted(vm for vm in self.host_of if vm not in busy)
        if not candidates:
            return None
        return candidates[int(self.churn_rng.integers(len(candidates)))]

    def plan_churn(self):
        """This period's departures, arrivals and operator migrations.

        Drawn from the workload seed and placed on the least-loaded host
        that still passes Eq. 7 -- decided before the period's clock
        starts, so only the program's own calls are timed.
        """
        rng, demand = self.churn_rng, self.template.demand_mhz
        n_dep = int(rng.poisson(self.departure_share * self.initial_vms))
        n_arr = int(rng.poisson(self.arrival_share * self.initial_vms))
        n_mig = int(rng.random() < self.migration_prob)
        busy, load = self._loads()
        departures, arrivals, migrations = [], [], []
        for _ in range(n_dep):
            vm = self._draw_vm(busy)
            if vm is None:
                break
            busy.add(vm)
            load[self.host_of[vm]] -= demand
            departures.append(vm)
        for _ in range(n_arr):
            self.count("ops.arrivals")
            node_id = self._least_loaded(load)
            if node_id is None:
                self.count("ops.arrivals_rejected")
                continue
            load[node_id] += demand
            arrivals.append((node_id, self._new_name(), self.mix.make(self.template.vcpus)))
        for _ in range(n_mig):
            vm = self._draw_vm(busy)
            target = None if vm is None else self._least_loaded(load, exclude=self.host_of[vm])
            if target is None:
                continue
            busy.add(vm)
            load[target] += demand
            migrations.append((vm, target))
        return departures, arrivals, migrations

    def apply_churn(self, plan) -> None:
        """Carry out a churn plan through public calls only."""
        from repro.placement.evaluator import Placement
        from repro.placement.request import PlacementRequest
        from repro.sim.cluster_engine import ClusterSimulation

        sim = self.sim
        departures, arrivals, migrations = plan
        for vm in departures:
            node_id = self.host_of.pop(vm)
            sim.runtimes[node_id].hypervisor.destroy(vm)
            sim.node_manager.unregister_vm(node_id, vm)
            self.count("sim.departures")
        for node_id, name, workload in arrivals:
            placement = Placement(cluster=self.cluster)
            placement.assign(node_id, PlacementRequest(name, self.template))
            sim.deploy(placement, lambda req: workload)
            self.host_of[name] = node_id
        for vm, target in migrations:
            self.count("ops.churn_migrations")
            try:
                # Called on the class so a traced run books it to churn,
                # not to the rebalancer's wrapped ``start_migration``.
                ClusterSimulation.start_migration(sim, vm, target)
            except (KeyError, ValueError):
                self.count("ops.churn_migrations_failed")

    def _follow_migrations(self) -> None:
        """A VM that started migrating is on its target by the time it
        may depart again (in-flight VMs never depart)."""
        events = self.sim.migrations
        for ev in events[self.migrations_seen:]:
            if ev.vm_name in self.host_of:
                self.host_of[ev.vm_name] = ev.target
        self.migrations_seen = len(events)

    def period(self, rec):
        sim = self.sim
        plan = self.plan_churn()
        spent = _timed(rec, "sim.churn", lambda: self.apply_churn(plan))
        ticks0 = sim.node_manager.ticks
        spent += _timed(rec, "sim.harness", lambda: sim.run(sim.dt))
        self.audit_substep(sim.dt)
        spent += _timed(rec, "sim.harness", lambda: sim.run(sim.dt))
        self.audit_substep(sim.dt)
        tick = self.slo_ticks
        spent += _timed(
            rec, "obs.slo",
            lambda: self.slo.observe_cluster(sim.node_manager, tick, t=sim.t),
        )
        self.slo_ticks += 1
        self._follow_migrations()
        if sim.node_manager.ticks != ticks0 + 1:
            raise GateFailure("cluster-wide: control plane did not tick once per period")
        self.close_audit()
        return spent

    def install_tracing(self, rec):
        sim = self.sim
        for runtime in sim.runtimes.values():
            ctrl = runtime.controller
            rec.wrap(runtime.node, "step", "sim.node_step")
            rec.wrap(ctrl, "tick", "core.controller")
            _wrap_backend(rec, ctrl.backend)
            rec.wrap(ctrl.obs, "on_tick", "obs.hub")
            rec.wrap(ctrl.billing, "on_tick", "billing")
        rec.wrap(sim.node_manager, "tick", "sim.node_manager.tick")
        rec.wrap(self.loop, "rebalance_once", "rebalance.round")
        rec.wrap(sim, "rebalance_arrays", "rebalance.snapshot")
        rec.wrap(sim, "rebalance_view", "rebalance.snapshot")
        rec.wrap(self.loop.planner, "plan", "rebalance.plan")
        rec.wrap(sim, "start_migration", "rebalance.execute")

    def _loop_totals(self):
        loop = self.loop
        return sum(loop.migrations_total.values()), loop.migrations_rejected

    def begin_counts(self):
        super().begin_counts()
        self._loop0 = self._loop_totals()
        self._rounds_seen = self.loop.rounds_total
        self._mig0 = len(self.sim.migrations)

    def audited_period(self):
        super().audited_period()
        if self.loop.rounds_total != self._rounds_seen:
            self._rounds_seen = self.loop.rounds_total
            count_round(self.m, self.loop.last_plan)

    def end_counts(self):
        super().end_counts()
        executed, rejected = self._loop_totals()
        self.m.add("rebalance.moves", executed - self._loop0[0])
        self.m.add("rebalance.execute_rejects", rejected - self._loop0[1])
        self.m.add("sim.migrations", len(self.sim.migrations) - self._mig0)


def count_round(m: Measurement, plan) -> None:
    """Fold one finished rebalance round into the audited counts."""
    m.add("rebalance.rounds", 1)
    m.add("rebalance.oracle_rejects", plan.skipped.get("plan_rejected_by_oracle", 0))
    m.add("rebalance.pressure_before_mhz", plan.pressure_before_mhz)
    m.add("rebalance.pressure_after_mhz", plan.pressure_after_mhz)


# -- fleet-churn ---------------------------------------------------------------------


class FleetChurn:
    """The ``chaos_churn_xl`` fleet, stepped by ``ChurnChaosCluster.run``.

    The cluster drives its own loop, so the benchmark measures through
    the run's per-step ``metrics`` callback: one period is the host time
    between two callbacks, which holds one full step (completions,
    chaos, departures, arrivals, violation accounting) and, every fifth
    step, a rebalance round.
    """

    name = "fleet-churn"
    #: Steps before timing starts; rebalance rounds in them are checked
    #: by :class:`PlanOracleGate`.  Not a multiple of the round period,
    #: so no gated round leaks into the first timed period.
    gate_steps = 21
    #: Most periods one run times (the scenario's pre-generated horizon
    #: ends just after); see :attr:`ControllerWorkload.max_periods`.
    max_periods = 800

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.m = Measurement()

    def setup(self) -> None:
        from repro.sim.scenario import ClusterScenario, chaos_churn_xl

        duration = float(self.gate_steps + self.max_periods + 1)
        if self.tiny:
            scenario = ClusterScenario(
                name="fleet-churn-tiny", nodes=20, vms=1000,
                duration=duration, seed=self.seed,
            )
        else:
            scenario = chaos_churn_xl(seed=self.seed, duration=duration)
        self.cluster, self.loop = scenario.build()

    def close(self) -> None:
        self.loop.close()

    def gate(self) -> None:
        """Nothing to do up front: the gate rides along the first
        :attr:`gate_steps` steps of :meth:`measure`."""

    def measure(self, seconds: float, trace: bool) -> Measurement:
        cluster, loop, m = self.cluster, self.loop, self.m
        rec = SpanRecorder() if trace else None
        self.recorder = rec
        gate = PlanOracleGate(cluster, loop)
        gate.install()
        state = {"step": 0, "resume": 0.0, "elapsed": 0.0, "traced": False}
        res = cluster.result

        def totals():
            return (
                res.violation_vm_seconds + res.downtime_vm_seconds,
                res.arrivals, res.rejected_arrivals, res.departures, res.migrations,
                sum(loop.migrations_total.values()), loop.migrations_rejected,
            )

        class Clock:
            @staticmethod
            def record_step(t, *, pressure_mhz, violating_vms, in_flight):
                now = time.perf_counter()
                state["step"] += 1
                step = state["step"]
                k = step - self.gate_steps - 1  # timed period index
                if k >= 0:
                    spent = now - state["resume"]
                    if state["traced"]:
                        rec.end()
                        rec.unwrap_all()
                    m.period_s.append(spent)
                    m.ref_s.append(calibrate.sample())
                    m.traced.append(state["traced"])
                    m.vms.append(len(cluster.vms))
                    state["elapsed"] += spent
                    if k < AUDITED_PERIODS:
                        m.add("periods", 1)
                        m.add("vm_seconds", len(cluster.vms) * cluster.config.dt_s)
                        if loop.rounds_total != state["rounds"]:
                            state["rounds"] = loop.rounds_total
                            count_round(m, loop.last_plan)
                    if k == AUDITED_PERIODS - 1:
                        end = totals()
                        start = state["totals"]
                        for key, a, b in zip(
                            ("bad_vm_seconds", "ops.arrivals", "ops.arrivals_rejected",
                             "sim.departures", "sim.migrations", "rebalance.moves",
                             "rebalance.execute_rejects"),
                            start, end,
                        ):
                            m.add(key, b - a)
                        m.audited_periods_done()
                    if k + 1 >= AUDITED_PERIODS and (
                        state["elapsed"] >= seconds or k + 1 >= self.max_periods
                    ):
                        raise _Stop
                elif step == self.gate_steps:
                    gate.uninstall()
                    if gate.rounds == 0:
                        raise GateFailure("fleet-churn: no rebalance round was gated")
                    state["totals"] = totals()
                    state["rounds"] = loop.rounds_total
                    m.ref_s.append(calibrate.sample())
                traced = trace and k % 2 == 0 and k >= -1
                state["traced"] = traced
                if traced:
                    rec.period = k + 1
                    self.install_tracing(rec)
                    rec.begin("sim.churn")
                state["resume"] = time.perf_counter()

        try:
            cluster.run(loop, metrics=Clock)
        except _Stop:
            pass
        if len(m.period_s) < AUDITED_PERIODS:
            raise GateFailure("fleet-churn: scenario ended before the audited periods")
        return m

    def install_tracing(self, rec: SpanRecorder) -> None:
        cluster, loop = self.cluster, self.loop
        rec.wrap(loop, "rebalance_once", "rebalance.round")
        rec.wrap(cluster, "rebalance_arrays", "rebalance.snapshot")
        rec.wrap(cluster, "rebalance_view", "rebalance.snapshot")
        rec.wrap(loop.planner, "plan", "rebalance.plan")
        rec.wrap(cluster, "start_migration", "rebalance.execute")
