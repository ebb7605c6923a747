"""Prometheus exposition-format export of controller state.

A production controller is scraped, not printed.  This renders the
latest :class:`~repro.core.controller.ControllerReport` (plus wallets
and config) as the Prometheus text format, ready to serve from a
``/metrics`` endpoint (``repro serve-metrics`` does exactly that):

    vfreq_vcpu_consumed_cycles{vm="small-0",vcpu="0"} 208211
    vfreq_vcpu_allocated_cycles{vm="small-0",vcpu="0"} 208333
    vfreq_vcpu_estimated_mhz{vm="small-0",vcpu="0"} 499.7
    vfreq_vm_credit_cycles{vm="small-0"} 1.25e+06
    vfreq_market_initial_cycles 1666667
    vfreq_iteration_seconds{stage="monitor"} 0.0021
    vfreq_span_seconds_bucket{stage="monitor",le="0.001"} 17

Every render function writes through a :class:`MetricsBuffer`, which
groups samples by metric family and emits each family's ``# HELP`` /
``# TYPE`` header exactly once with all its samples contiguous — the
text-exposition rules a real Prometheus scraper enforces.  Called
standalone (no ``buf``), each function still returns its own complete,
valid exposition; to compose several sources into one page (controller
+ node-manager aggregates, or a whole cluster) pass one shared buffer —
:func:`render_cluster` does this, disambiguating per-node series with a
``node`` label so identically-named samples never collide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.backend import BackendStats
from repro.core.controller import ControllerReport, VirtualFrequencyController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracing import Tracer
    from repro.sim.node_manager import NodeManager

_STAGES = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")


def _escape(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text (backslash and newline only — no quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _line(name: str, value: float, **labels: str) -> str:
    if labels:
        inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
        return f"{name}{{{inner}}} {value:g}"
    return f"{name} {value:g}"


class MetricsBuffer:
    """Family-grouped sample collector for one exposition page.

    ``family()`` declares a metric family (first declaration wins);
    ``add()`` appends one sample to it.  ``text()`` renders families in
    first-seen order, each with one ``# HELP`` / ``# TYPE`` header and
    its samples contiguous — so any number of render functions can share
    one buffer without ever duplicating a header or splitting a family.
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._meta: Dict[str, Tuple[str, str]] = {}
        self._samples: Dict[str, List[str]] = {}

    def family(self, name: str, mtype: str, help_text: str) -> None:
        if name not in self._meta:
            self._meta[name] = (mtype, help_text)
            self._order.append(name)
            self._samples[name] = []

    def add(self, family: str, value: float, suffix: str = "", **labels: str) -> None:
        """One sample; ``suffix`` covers ``_bucket``/``_sum``/``_count``."""
        if family not in self._meta:
            raise KeyError(f"undeclared metric family: {family}")
        self._samples[family].append(_line(family + suffix, value, **labels))

    def text(self) -> str:
        lines: List[str] = []
        for name in self._order:
            mtype, help_text = self._meta[name]
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {mtype}")
            lines.extend(self._samples[name])
        return "\n".join(lines) + "\n"


def _merged(labels: Dict[str, str], extra: Optional[Dict[str, str]]) -> Dict[str, str]:
    if not extra:
        return labels
    out = dict(labels)
    out.update(extra)
    return out


def render_report(
    report: ControllerReport,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render one iteration's observations and decisions."""
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_vcpu_consumed_cycles", "gauge",
        "Cycles consumed last period (us).",
    )
    for s in report.samples:
        labels = _merged({"vm": s.vm_name, "vcpu": str(s.vcpu_index)}, extra_labels)
        buf.add("vfreq_vcpu_consumed_cycles", s.consumed_cycles, **labels)
    buf.family(
        "vfreq_vcpu_estimated_mhz", "gauge", "Estimated virtual frequency."
    )
    for s in report.samples:
        labels = _merged({"vm": s.vm_name, "vcpu": str(s.vcpu_index)}, extra_labels)
        buf.add("vfreq_vcpu_estimated_mhz", s.vfreq_mhz, **labels)
    if report.allocations:
        buf.family(
            "vfreq_vcpu_allocated_cycles", "gauge",
            "Capping applied this period (us).",
        )
        for s in report.samples:
            alloc = report.allocations.get(s.cgroup_path)
            if alloc is None:
                continue
            labels = _merged(
                {"vm": s.vm_name, "vcpu": str(s.vcpu_index)}, extra_labels
            )
            buf.add("vfreq_vcpu_allocated_cycles", alloc, **labels)
    buf.family("vfreq_vm_credit_cycles", "gauge", "Auction wallet balance.")
    for vm, balance in sorted(report.wallets.items()):
        buf.add(
            "vfreq_vm_credit_cycles", balance, **_merged({"vm": vm}, extra_labels)
        )
    buf.family(
        "vfreq_market_initial_cycles", "gauge",
        "Unallocated cycles before the auction.",
    )
    buf.add(
        "vfreq_market_initial_cycles", report.market_initial,
        **_merged({}, extra_labels),
    )
    buf.family(
        "vfreq_iteration_seconds", "gauge",
        "Wall time of each controller stage.",
    )
    for stage in _STAGES:
        buf.add(
            "vfreq_iteration_seconds", getattr(report.timings, stage),
            **_merged({"stage": stage}, extra_labels),
        )
    return buf.text() if own else ""


def render_backend_stats(
    stats: BackendStats,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render cumulative kernel-surface operation counters.

    One counter family labelled by operation kind, so a dashboard can
    graph the monitoring syscall budget the paper worries about
    (§IV-A2: monitoring dominates iteration cost).
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_backend_ops_total", "counter",
        "Kernel-surface operations issued.",
    )
    for op, count in stats.as_dict().items():
        buf.add(
            "vfreq_backend_ops_total", count, **_merged({"op": op}, extra_labels)
        )
    return buf.text() if own else ""


def render_resilience(
    controller: VirtualFrequencyController,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render fault-handling counters of a resilient controller.

    One event-counter family from :class:`~repro.core.resilience.
    ResilienceStats`, the degraded-vCPU gauge an operator alerts on,
    and the latest crash/occlusion recovery latency in ticks.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    stats = controller.resilience_stats
    buf.family(
        "vfreq_resilience_events_total", "counter", "Fault-handling events."
    )
    for event, count in stats.as_dict().items():
        if event == "last_recovery_ticks":
            continue
        buf.add(
            "vfreq_resilience_events_total", count,
            **_merged({"event": event}, extra_labels),
        )
    buf.family(
        "vfreq_degraded_vcpus", "gauge", "vCPUs currently on fallback capping."
    )
    buf.add(
        "vfreq_degraded_vcpus", controller.degraded_vcpus,
        **_merged({}, extra_labels),
    )
    buf.family(
        "vfreq_recovery_latency_ticks", "gauge",
        "Ticks the last recovered vCPU spent degraded.",
    )
    buf.add(
        "vfreq_recovery_latency_ticks", stats.last_recovery_ticks,
        **_merged({}, extra_labels),
    )
    return buf.text() if own else ""


def render_fault_stats(
    injector,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render injected-fault counters of a FaultInjector backend."""
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_faults_injected_total", "counter",
        "Faults fired by the active plan.",
    )
    for kind, count in sorted(injector.injected.items()):
        buf.add(
            "vfreq_faults_injected_total", count,
            **_merged({"kind": kind}, extra_labels),
        )
    return buf.text() if own else ""


def render_stage_seconds(
    controller: VirtualFrequencyController,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render mean per-stage tick cost over the retained reports.

    ``vfreq_iteration_seconds`` is the latest tick only; this family is
    the running average an operator tracks when comparing the scalar
    and bulk engines (see docs/performance.md), labelled with the
    active engine so a dashboard can split the series on switch-over.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    reports = controller.reports
    buf.family(
        "vfreq_stage_seconds", "gauge", "Mean wall time per controller stage."
    )
    n = len(reports)
    engine = controller.config.engine
    for stage in _STAGES:
        mean = (
            sum(getattr(r.timings, stage) for r in reports) / n if n else 0.0
        )
        buf.add(
            "vfreq_stage_seconds", mean,
            **_merged({"stage": stage, "engine": engine}, extra_labels),
        )
    return buf.text() if own else ""


def render_span_seconds(
    tracer: "Tracer",
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render the tracer's per-stage duration histograms.

    One Prometheus histogram family ``vfreq_span_seconds`` labelled by
    stage: cumulative ``_bucket{le=...}`` series (``+Inf`` included),
    plus ``_sum`` and ``_count`` — fed by every ``stage:*`` span the
    tracer has seen, so quantiles cover the whole run, not just the
    latest tick.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_span_seconds", "histogram",
        "Distribution of per-stage span durations.",
    )
    for stage in sorted(tracer.histograms):
        hist = tracer.histograms[stage]
        for bound, cum in zip(hist.bounds, hist.cumulative()):
            buf.add(
                "vfreq_span_seconds", cum, suffix="_bucket",
                **_merged({"stage": stage, "le": f"{bound:g}"}, extra_labels),
            )
        buf.add(
            "vfreq_span_seconds", hist.count, suffix="_bucket",
            **_merged({"stage": stage, "le": "+Inf"}, extra_labels),
        )
        buf.add(
            "vfreq_span_seconds", hist.sum, suffix="_sum",
            **_merged({"stage": stage}, extra_labels),
        )
        buf.add(
            "vfreq_span_seconds", hist.count, suffix="_count",
            **_merged({"stage": stage}, extra_labels),
        )
    return buf.text() if own else ""


def _render_histogram(
    buf: MetricsBuffer,
    family: str,
    hist,
    labels: Dict[str, str],
    extra_labels: Optional[Dict[str, str]],
) -> None:
    """One Prometheus histogram: cumulative buckets + _sum + _count."""
    for bound, cum in zip(hist.bounds, hist.cumulative()):
        buf.add(
            family, cum, suffix="_bucket",
            **_merged({**labels, "le": f"{bound:g}"}, extra_labels),
        )
    buf.add(
        family, hist.count, suffix="_bucket",
        **_merged({**labels, "le": "+Inf"}, extra_labels),
    )
    buf.add(family, hist.sum, suffix="_sum", **_merged(labels, extra_labels))
    buf.add(family, hist.count, suffix="_count", **_merged(labels, extra_labels))


def render_rebalance(
    loop,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a rebalance loop's counters and latency histograms.

    ``loop`` is duck-typed (:class:`repro.rebalance.loop.RebalanceLoop`
    — importing it here would close a cycle through ``checking``):
    anything with ``rounds_total`` / ``migrations_total`` /
    ``migrations_rejected`` / ``round_hist`` / ``migration_hist``
    renders.  ``vfreq_migrations_total`` is labelled by the planner
    goal (``reason``) so a dashboard can tell pressure relief from
    consolidation and drains apart.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_rebalance_rounds_total", "counter",
        "Rebalance planner rounds executed.",
    )
    buf.add(
        "vfreq_rebalance_rounds_total", loop.rounds_total,
        **_merged({}, extra_labels),
    )
    buf.family(
        "vfreq_migrations_total", "counter",
        "Live migrations started, per planner goal.",
    )
    for reason, count in sorted(loop.migrations_total.items()):
        buf.add(
            "vfreq_migrations_total", count,
            **_merged({"reason": reason}, extra_labels),
        )
    if loop.migrations_rejected:
        buf.add(
            "vfreq_migrations_total", loop.migrations_rejected,
            **_merged({"reason": "rejected"}, extra_labels),
        )
    buf.family(
        "vfreq_migration_seconds", "histogram",
        "Distribution of live-migration durations.",
    )
    _render_histogram(
        buf, "vfreq_migration_seconds", loop.migration_hist, {}, extra_labels
    )
    buf.family(
        "vfreq_rebalance_round_seconds", "histogram",
        "Distribution of planner round wall time.",
    )
    _render_histogram(
        buf, "vfreq_rebalance_round_seconds", loop.round_hist, {}, extra_labels
    )
    return buf.text() if own else ""


def render_invariants(
    checker,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render the inline invariant oracle's counters.

    ``vfreq_invariant_violations_total`` is the alert an operator pages
    on — any non-zero value means a paper-equation guarantee was broken
    in production.  Per-invariant labels use the catalogue names from
    :mod:`repro.checking.invariants`.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_invariant_checks_total", "counter",
        "Tick-level oracle passes run.",
    )
    buf.add(
        "vfreq_invariant_checks_total", checker.checks_total,
        **_merged({}, extra_labels),
    )
    buf.family(
        "vfreq_invariant_violations_total", "counter",
        "Broken paper-equation invariants.",
    )
    buf.add(
        "vfreq_invariant_violations_total", checker.violations_total,
        **_merged({}, extra_labels),
    )
    for invariant, count in sorted(checker.violations_by_invariant.items()):
        buf.add(
            "vfreq_invariant_violations_total", count,
            **_merged({"invariant": invariant}, extra_labels),
        )
    return buf.text() if own else ""


def render_billing(
    engine,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a billing engine's revenue and SLA-credit counters.

    ``engine`` is duck-typed (:class:`repro.billing.meter.BillingEngine`
    — importing it here would pull billing into every core import):
    anything holding a ``meter`` with ``usage`` / ``credits``
    accumulators renders.  Revenue is labelled by tenant and pricing
    tier, metered volume by tenant and cycle class, credits by tenant —
    the families a revenue dashboard (or an overcommit post-mortem)
    slices on.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    meter = engine.meter
    revenue: Dict[Tuple[str, str], float] = {}
    volume: Dict[Tuple[str, str], float] = {}
    for (tenant, _vm, _vcpu, tier, kind), cell in meter.usage.items():
        revenue[(tenant, tier)] = revenue.get((tenant, tier), 0.0) + cell[2]
        volume[(tenant, kind)] = volume.get((tenant, kind), 0.0) + cell[1]
    credits: Dict[str, float] = {}
    for (tenant, _vm, _vcpu, _tier), cell in meter.credits.items():
        credits[tenant] = credits.get(tenant, 0.0) + cell[2]
    buf.family(
        "vfreq_revenue_total", "counter",
        "Metered revenue, per tenant and pricing tier.",
    )
    for (tenant, tier), amount in sorted(revenue.items()):
        buf.add(
            "vfreq_revenue_total", amount,
            **_merged({"tenant": tenant, "tier": tier}, extra_labels),
        )
    buf.family(
        "vfreq_metered_mhz_seconds_total", "counter",
        "Metered MHz-seconds, per tenant and cycle class.",
    )
    for (tenant, kind), mhz_s in sorted(volume.items()):
        buf.add(
            "vfreq_metered_mhz_seconds_total", mhz_s,
            **_merged({"tenant": tenant, "kind": kind}, extra_labels),
        )
    buf.family(
        "vfreq_sla_credits_total", "counter",
        "SLA shortfall refunds, per tenant.",
    )
    for tenant, amount in sorted(credits.items()):
        buf.add(
            "vfreq_sla_credits_total", amount,
            **_merged({"tenant": tenant}, extra_labels),
        )
    return buf.text() if own else ""


def render_slo(
    plane,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render an SLO plane's budgets, firing alerts, and transitions.

    ``plane`` is duck-typed (:class:`repro.obs.slo.SLOPlane` — importing
    it here would pull the SLO plane into every core import): anything
    with ``specs`` / ``error_budget_remaining`` / ``firing_alerts`` /
    ``transitions_total`` renders.  ``vfreq_slo_error_budget_remaining``
    is per SLO (and per grouping label set — e.g. per tenant), so a
    dashboard graphs budget exhaustion directly; ``vfreq_alerts_firing``
    is the pager feed.
    """
    own = buf is None
    if own:
        buf = MetricsBuffer()
    buf.family(
        "vfreq_slo_error_budget_remaining", "gauge",
        "Unspent error-budget fraction over the budget window.",
    )
    for spec in plane.specs:
        for labelset in plane._label_sets(spec):
            labels = dict(labelset)
            buf.add(
                "vfreq_slo_error_budget_remaining",
                plane.error_budget_remaining(spec, labels),
                **_merged({**labels, "slo": spec.name}, extra_labels),
            )
    buf.family(
        "vfreq_alerts_firing", "gauge",
        "Alerts currently firing, per SLO and severity.",
    )
    counts: Dict[Tuple[str, str], int] = {}
    for alert in plane.firing_alerts():
        key = (alert["slo"], alert["severity"])
        counts[key] = counts.get(key, 0) + 1
    for (slo, severity), count in sorted(counts.items()):
        buf.add(
            "vfreq_alerts_firing", count,
            **_merged({"slo": slo, "severity": severity}, extra_labels),
        )
    buf.family(
        "vfreq_alert_transitions_total", "counter",
        "Firing/resolved alert transitions recorded.",
    )
    buf.add(
        "vfreq_alert_transitions_total", plane.transitions_total,
        **_merged({}, extra_labels),
    )
    return buf.text() if own else ""


def render_controller(
    controller: VirtualFrequencyController,
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render the controller's most recent iteration (empty host ok)."""
    own = buf is None
    if own:
        buf = MetricsBuffer()
    if not controller.reports:
        render_report(ControllerReport(t=0.0), buf, extra_labels)
    else:
        render_report(controller.reports[-1], buf, extra_labels)
    render_stage_seconds(controller, buf, extra_labels)
    obs = getattr(controller, "obs", None)
    if obs is not None and getattr(obs, "tracer", None) is not None:
        render_span_seconds(obs.tracer, buf, extra_labels)
    checker = getattr(controller, "invariant_checker", None)
    if checker is not None:
        render_invariants(checker, buf, extra_labels)
    backend = getattr(controller, "backend", None)
    if backend is not None:
        render_backend_stats(backend.stats, buf, extra_labels)
        if hasattr(backend, "injected"):
            render_fault_stats(backend, buf, extra_labels)
    if controller.resilience is not None:
        render_resilience(controller, buf, extra_labels)
    billing = getattr(controller, "billing", None)
    if billing is not None:
        render_billing(billing, buf, extra_labels)
    slo = getattr(controller, "slo", None)
    if slo is not None:
        render_slo(slo, buf, extra_labels)
    return buf.text() if own else ""


def render_node_manager(
    manager: "NodeManager",
    buf: Optional[MetricsBuffer] = None,
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render control-plane aggregates: node count, summed stage wall
    time across the latest tick, and the cluster-wide syscall budget."""
    own = buf is None
    if own:
        buf = MetricsBuffer()
    timings = manager.aggregate_timings()
    buf.family(
        "vfreq_nodes_managed", "gauge", "Nodes under this control plane."
    )
    buf.add("vfreq_nodes_managed", manager.num_nodes, **_merged({}, extra_labels))
    buf.family(
        "vfreq_nodes_iteration_seconds", "gauge",
        "Summed stage wall time, last tick.",
    )
    for stage in _STAGES:
        buf.add(
            "vfreq_nodes_iteration_seconds", getattr(timings, stage),
            **_merged({"stage": stage}, extra_labels),
        )
    buf.family(
        "vfreq_node_tick_errors_total", "counter",
        "Ticks that raised, per node.",
    )
    for node_id, count in sorted(manager.error_counts.items()):
        buf.add(
            "vfreq_node_tick_errors_total", count,
            **_merged({"node": node_id}, extra_labels),
        )
    buf.family(
        "vfreq_nodes_failed_last_tick", "gauge",
        "Nodes whose latest tick raised.",
    )
    buf.add(
        "vfreq_nodes_failed_last_tick", len(manager.last_errors),
        **_merged({}, extra_labels),
    )
    checks, violations = manager.invariant_totals()
    if checks:
        buf.family(
            "vfreq_invariant_checks_total", "counter",
            "Tick-level oracle passes run.",
        )
        buf.add(
            "vfreq_invariant_checks_total", checks, **_merged({}, extra_labels)
        )
        buf.family(
            "vfreq_invariant_violations_total", "counter",
            "Broken paper-equation invariants.",
        )
        buf.add(
            "vfreq_invariant_violations_total", violations,
            **_merged({}, extra_labels),
        )
    render_backend_stats(manager.backend_stats(), buf, extra_labels)
    return buf.text() if own else ""


def render_cluster(manager: "NodeManager") -> str:
    """One exposition page for a whole control plane.

    Manager-level aggregates render unlabelled; every per-node
    controller's series carry a ``node`` label, so families shared
    between the two levels (backend ops, invariant counters) keep one
    header, contiguous samples, and collision-free label sets.
    """
    buf = MetricsBuffer()
    render_node_manager(manager, buf)
    for node_id, controller in manager.controllers.items():
        if isinstance(controller, VirtualFrequencyController):
            render_controller(controller, buf, {"node": node_id})
    return buf.text()
