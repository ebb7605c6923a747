"""Correctness gates the benchmark runs outside its timed region.

* Controller workloads: the report stream of the default-engine build
  must be bit-identical to a replica built with ``engine="scalar"``,
  the per-vCPU oracle that follows the paper line by line.
* ``fleet-churn``: every rebalance plan in the prefix must equal the
  plan the same planner makes from the readable ``ClusterStateView``
  snapshot, and ``check_plan_admissible`` must accept it.

A failed gate raises :class:`GateFailure`; the command then exits
non-zero without printing a result.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


class GateFailure(RuntimeError):
    """The program's output disagreed with its oracle."""


def report_diff(a, b) -> List[str]:
    """Names of the operator-visible fields in which two reports differ.

    Floats compare with ``==``: the engines promise identical bits, not
    closeness.  ``decisions`` is compared only when both sides built it
    (a controller with ``keep_reports`` off skips the per-path objects).
    """
    diffs = []
    for name in (
        "t", "samples", "allocations", "wallets", "market_initial",
        "freely_distributed", "free_shares", "degraded",
    ):
        if getattr(a, name) != getattr(b, name):
            diffs.append(name)
    if a.decisions and b.decisions:
        da = {p: (d.estimate_cycles, d.trend, d.case) for p, d in a.decisions.items()}
        db = {p: (d.estimate_cycles, d.trend, d.case) for p, d in b.decisions.items()}
        if da != db:
            diffs.append("decisions")
    if (a.auction is None) != (b.auction is None):
        diffs.append("auction")
    elif a.auction is not None:
        for name in ("purchased", "market_left", "rounds", "spent_per_vm"):
            if getattr(a.auction, name) != getattr(b.auction, name):
                diffs.append(f"auction.{name}")
    return diffs


def check_report_streams(
    stream: Sequence[Dict[str, object]], oracle: Sequence[Dict[str, object]]
) -> None:
    """Both arguments: one ``{host: report}`` dict per period."""
    if len(stream) != len(oracle):
        raise GateFailure(
            f"report stream has {len(stream)} periods, oracle {len(oracle)}"
        )
    for period, (got, want) in enumerate(zip(stream, oracle), start=1):
        if sorted(got) != sorted(want):
            raise GateFailure(f"period {period}: hosts reported differ from oracle")
        for host in sorted(got):
            diffs = report_diff(got[host], want[host])
            if diffs:
                raise GateFailure(
                    f"period {period}, host {host}: report differs from the "
                    f"scalar oracle in {', '.join(diffs)}"
                )


def plan_key(plan) -> tuple:
    return (
        tuple(plan.moves),
        plan.pressure_before_mhz,
        plan.pressure_after_mhz,
        tuple(sorted(plan.skipped.items())),
    )


class PlanOracleGate:
    """Re-plans every gated round from the view dialect and certifies it.

    Install on a built ``(cluster, loop)`` pair; each snapshot the loop
    takes also captures ``cluster.rebalance_view()`` of the same state,
    and each plan is re-derived from that view by an identically
    configured planner and checked by the admissibility oracle.
    """

    def __init__(self, cluster, loop) -> None:
        from repro.checking.invariants import check_plan_admissible
        from repro.rebalance import MigrationPlanner

        self._check = check_plan_admissible
        self.cluster = cluster
        self.loop = loop
        self.oracle = MigrationPlanner(loop.planner.model, loop.planner.config)
        self.rounds = 0
        self._view = None

    def install(self) -> None:
        cluster, planner = self.cluster, self.loop.planner
        # Hook whichever snapshot the loop takes (both dialects exist today).
        self._snapshot_attr = (
            "rebalance_arrays" if hasattr(cluster, "rebalance_arrays") else "rebalance_view"
        )
        snapshot = getattr(cluster, self._snapshot_attr)
        plan = planner.plan

        def gated_snapshot():
            self._view = cluster.rebalance_view()
            return snapshot()

        def gated_plan(view, *, drain=(), seed=0):
            got = plan(view, drain=drain, seed=seed)
            self.verify(got, self._view, drain=drain, seed=seed)
            return got

        setattr(cluster, self._snapshot_attr, gated_snapshot)
        planner.plan = gated_plan

    def uninstall(self) -> None:
        delattr(self.cluster, self._snapshot_attr)
        del self.loop.planner.plan

    def verify(self, plan, view, *, drain=(), seed=0) -> None:
        self.rounds += 1
        want = self.oracle.plan(view, drain=drain, seed=seed)
        if plan_key(plan) != plan_key(want):
            raise GateFailure(
                f"rebalance round at t={plan.t}: plan differs from the "
                f"view-dialect oracle ({len(plan.moves)} vs {len(want.moves)} moves)"
            )
        violations = self._check(
            view, plan, allocation_ratio=self.loop.planner.config.allocation_ratio
        )
        if violations:
            raise GateFailure(
                f"rebalance round at t={plan.t}: check_plan_admissible "
                f"rejected the plan: {violations[0].message}"
            )
