"""Tick-level invariant oracles for the controller (paper Eqs. 2, 5, 6).

Every function here *recomputes* a guarantee of the paper's design
directly from controller state and the tick's observations, then
compares against what the tick actually decided — an independent
implementation of the equations, deliberately written in plain per-path
Python so a bug shared between the scalar and bulk engines (or
introduced by a future refactor of either) still trips the oracle.

Invariant catalogue (names are stable — tests, docs and the
``vfreq_invariant_violations_total`` metric label refer to them):

``eq2_guarantee``
    A vCPU whose estimated demand reaches its Eq. 2 guarantee ``C_i``
    must be allocated at least ``C_i``: the guarantee is uncondit-
    ionally honoured for saturated demand (§III-B3).
``eq5_base_cap``
    Every allocation stays within the Eq. 5 envelope: at least the base
    capping ``min(e, C_i)`` (the auction and free distribution only
    add), at most ``min(e, p_us)`` when the vCPU wants more than its
    base, never above one core's cycles ``p_us``.
``eq6_market``
    The reported market equals the recomputed Eq. 6 value
    ``max(0, C_m^MAX - Σ base)``; auction bookkeeping conserves cycles
    (``Σ purchased + market_left = market``); the free distribution
    never hands out more than the auction left over.
``free_distribution``
    Stage-5 bookkeeping: recorded shares are positive, target allocated
    paths, sum exactly to ``freely_distributed``, and every healthy
    allocation reconstructs as ``min(base + purchased + free, p_us)`` —
    the same causal chain the decision ledger (:mod:`repro.obs.ledger`)
    records and ``repro explain`` prints.
``budget``
    Total cycles allocated to observed, non-degraded vCPUs never exceed
    host capacity ``C_m^MAX`` (Eq. 1) — or, on a host over-committed
    beyond Eq. 7, the sum of their guarantees.  The market can
    over-sell only through a bug; this is the oracle that catches it.
``ledger``
    Credit wallets are never negative, never exceed the configured
    credit cap, and evolve exactly as Eq. 4 accrual minus auction
    spending predicts from the previous tick's balances.
``enforcement``
    Every allocation the tick decided is consistent with the quota the
    backend holds in force: ``cpu.max`` content inverts (through the
    enforcer's scaling and kernel floor) to the allocated cycles,
    except for paths whose write failed and is tracked for retry.
``resilience_fallback``
    Degraded-mode fallback caps stay within bounds: exactly the Eq. 2
    guarantee under ``degraded_action="guarantee"``, never above one
    core's cycles, never negative.
``samples``
    Monitoring sanity: consumptions and frequency estimates are finite
    and non-negative.

The checker is *stateful* only for the ledger delta (previous wallets);
call :meth:`InvariantChecker.resync` after a snapshot restore.

Numeric tolerance: oracles compare in cycles (1 cycle = 1 µs of CPU per
period) with an absolute tolerance of ``TOL = 1e-3`` cycles — far below
any real decision (the kernel quota floor alone is 1 000 cycles) yet
loose enough to absorb the float reassociation between an incremental
wallet and its recomputed total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.units import cycles_per_period, period_us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import ControllerReport, VirtualFrequencyController

#: Absolute comparison tolerance, cycles (µs of CPU per period).
TOL = 1e-3


@dataclass(frozen=True)
class Violation:
    """One broken invariant at one tick."""

    invariant: str
    message: str
    t: float = 0.0
    path: Optional[str] = None
    vm: Optional[str] = None

    def __str__(self) -> str:
        where = self.path or self.vm or ""
        where = f" [{where}]" if where else ""
        return f"t={self.t:g} {self.invariant}{where}: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised by a controller running with ``check_invariants=True``."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = violations
        lines = "\n  ".join(str(v) for v in violations)
        super().__init__(
            f"{len(violations)} invariant violation(s):\n  {lines}"
        )


@dataclass
class TickContext:
    """Everything one oracle pass needs, precomputed once per tick."""

    controller: "VirtualFrequencyController"
    report: "ControllerReport"
    p_us: float
    total_cycles: float
    #: Eq. 2 guarantee per sampled/allocated vCPU path.
    guarantees: Dict[str, float]
    #: Stage-2 estimate per path (empty when the report kept no decisions).
    estimates: Dict[str, float]
    #: Recomputed Eq. 5 base capping per path (empty without estimates).
    base: Dict[str, float]
    #: Paths held at a degraded-mode fallback cap this tick.
    degraded: frozenset
    #: Wallet balances at the end of the previous tick.
    prev_wallets: Dict[str, float]


def _make_context(
    controller: "VirtualFrequencyController",
    report: "ControllerReport",
    prev_wallets: Dict[str, float],
) -> TickContext:
    cfg = controller.config
    p_us = period_us(cfg.period_s)
    guarantees: Dict[str, float] = {}
    vm_of: Dict[str, str] = {}
    for s in report.samples:
        vm_of[s.cgroup_path] = s.vm_name
    for path in set(vm_of) | set(report.allocations):
        vm = vm_of.get(path)
        if vm is None:
            vm = _vm_of_path(controller, path)
        if vm is not None and vm in controller._vm_vfreq:
            guarantees[path] = controller.guaranteed_cycles_of(vm)
    estimates = {
        path: d.estimate_cycles for path, d in report.decisions.items()
    }
    base: Dict[str, float] = {}
    for path, e in estimates.items():
        g = guarantees.get(path)
        if g is None:
            continue
        b = min(e, g)
        if cfg.reserve_guarantee:
            b = max(b, g)
        base[path] = b
    return TickContext(
        controller=controller,
        report=report,
        p_us=p_us,
        total_cycles=cycles_per_period(cfg.period_s, controller.num_cpus),
        guarantees=guarantees,
        estimates=estimates,
        base=base,
        degraded=frozenset(report.degraded),
        prev_wallets=prev_wallets,
    )


def _vm_of_path(controller: "VirtualFrequencyController", path: str) -> Optional[str]:
    from repro.core.backend import vm_component

    return vm_component(path, controller.machine_slice)


# ---------------------------------------------------------------------------
# The oracles.  Each takes a TickContext and returns violations.
# ---------------------------------------------------------------------------


def check_eq2_guarantee(ctx: TickContext) -> List[Violation]:
    """Eq. 2: saturated demand (e >= C_i) receives at least C_i."""
    out: List[Violation] = []
    for path, e in ctx.estimates.items():
        if path in ctx.degraded or path not in ctx.report.allocations:
            continue
        g = ctx.guarantees.get(path)
        if g is None or e < g - TOL:
            continue
        alloc = ctx.report.allocations[path]
        if alloc < g - TOL:
            out.append(Violation(
                "eq2_guarantee",
                f"estimate {e:.3f} >= guarantee {g:.3f} but allocation "
                f"is only {alloc:.3f}",
                t=ctx.report.t, path=path,
            ))
    return out


def check_eq5_base_cap(ctx: TickContext) -> List[Violation]:
    """Eq. 5 envelope: base <= allocation <= min(max(base, e), p_us)."""
    out: List[Violation] = []
    for path, alloc in ctx.report.allocations.items():
        if path in ctx.degraded:
            continue
        if alloc < -TOL:
            out.append(Violation(
                "eq5_base_cap", f"negative allocation {alloc:.3f}",
                t=ctx.report.t, path=path,
            ))
        if alloc > ctx.p_us + TOL:
            out.append(Violation(
                "eq5_base_cap",
                f"allocation {alloc:.3f} exceeds one core's cycles "
                f"{ctx.p_us:.0f}",
                t=ctx.report.t, path=path,
            ))
        b = ctx.base.get(path)
        if b is None:
            continue  # no decision kept for this path
        e = ctx.estimates[path]
        if alloc < b - TOL:
            out.append(Violation(
                "eq5_base_cap",
                f"allocation {alloc:.3f} below Eq. 5 base capping {b:.3f}",
                t=ctx.report.t, path=path,
            ))
        ceiling = min(max(b, e), ctx.p_us)
        if alloc > ceiling + TOL:
            out.append(Violation(
                "eq5_base_cap",
                f"allocation {alloc:.3f} above demand ceiling {ceiling:.3f} "
                f"(estimate {e:.3f})",
                t=ctx.report.t, path=path,
            ))
    return out


def check_eq6_market(ctx: TickContext) -> List[Violation]:
    """Eq. 6 recomputation + auction/distribution cycle conservation."""
    report = ctx.report
    out: List[Violation] = []
    if ctx.base and len(ctx.base) == len(report.allocations) - len(ctx.degraded):
        recomputed = max(0.0, ctx.total_cycles - math.fsum(ctx.base.values()))
        if abs(recomputed - report.market_initial) > TOL:
            out.append(Violation(
                "eq6_market",
                f"reported market {report.market_initial:.3f} != recomputed "
                f"Eq. 6 market {recomputed:.3f}",
                t=report.t,
            ))
    outcome = report.auction
    if outcome is not None:
        sold = math.fsum(outcome.purchased.values())
        if abs(report.market_initial - sold - outcome.market_left) > TOL:
            out.append(Violation(
                "eq6_market",
                f"auction does not conserve cycles: market "
                f"{report.market_initial:.3f} - sold {sold:.3f} != left "
                f"{outcome.market_left:.3f}",
                t=report.t,
            ))
        spent = math.fsum(outcome.spent_per_vm.values())
        if abs(spent - sold) > TOL:
            out.append(Violation(
                "eq6_market",
                f"credits spent {spent:.3f} != cycles sold {sold:.3f}",
                t=report.t,
            ))
        if report.freely_distributed > outcome.market_left + TOL:
            out.append(Violation(
                "eq6_market",
                f"freely distributed {report.freely_distributed:.3f} exceeds "
                f"auction leftover {outcome.market_left:.3f}",
                t=report.t,
            ))
    return out


def check_free_distribution(ctx: TickContext) -> List[Violation]:
    """Stage-5 shares book-balance and reconstruct each allocation."""
    report = ctx.report
    shares = report.free_shares
    if report.freely_distributed > TOL and not shares:
        # A report built before stage-5 shares were recorded (legacy
        # replay fixtures): the total-level checks in eq6_market still
        # apply, the per-share bookkeeping has nothing to check.
        return []
    out: List[Violation] = []
    total = math.fsum(shares.values())
    if abs(total - report.freely_distributed) > TOL:
        out.append(Violation(
            "free_distribution",
            f"recorded shares sum to {total:.3f} but the tick reports "
            f"{report.freely_distributed:.3f} freely distributed",
            t=report.t,
        ))
    for path, share in shares.items():
        if share <= 0:
            out.append(Violation(
                "free_distribution", f"non-positive share {share:.3f}",
                t=report.t, path=path,
            ))
        if path not in report.allocations:
            out.append(Violation(
                "free_distribution",
                "share granted to a path that was never allocated",
                t=report.t, path=path,
            ))
    purchased = report.auction.purchased if report.auction else {}
    for path, alloc in report.allocations.items():
        if path in ctx.degraded:
            continue
        b = ctx.base.get(path)
        if b is None:
            continue  # no decision kept for this path
        expected = min(
            b + purchased.get(path, 0.0) + shares.get(path, 0.0), ctx.p_us
        )
        if abs(expected - alloc) > TOL:
            out.append(Violation(
                "free_distribution",
                f"allocation {alloc:.3f} != base {b:.3f} + purchased "
                f"{purchased.get(path, 0.0):.3f} + free "
                f"{shares.get(path, 0.0):.3f} (capped at {ctx.p_us:.0f})",
                t=report.t, path=path,
            ))
    return out


def check_budget(ctx: TickContext) -> List[Violation]:
    """Eq. 1 budget: observed non-degraded allocations never over-sell."""
    normal = [
        alloc for path, alloc in ctx.report.allocations.items()
        if path not in ctx.degraded
    ]
    if not normal:
        return []
    allocated = math.fsum(normal)
    committed = math.fsum(
        ctx.guarantees[p] for p in ctx.report.allocations
        if p not in ctx.degraded and p in ctx.guarantees
    )
    # On a host over-committed beyond Eq. 7 the base capping alone may
    # exceed the budget; the ceiling is then the committed guarantees.
    ceiling = max(ctx.total_cycles, committed)
    if allocated > ceiling + TOL:
        return [Violation(
            "budget",
            f"market over-sold: {allocated:.3f} cycles allocated against a "
            f"host capacity of {ctx.total_cycles:.0f} (committed "
            f"guarantees {committed:.3f})",
            t=ctx.report.t,
        )]
    return []


def check_ledger(ctx: TickContext) -> List[Violation]:
    """Wallet safety + exact Eq. 4 accrual / auction spend accounting."""
    report = ctx.report
    cfg = ctx.controller.config
    out: List[Violation] = []
    for vm, balance in report.wallets.items():
        if balance < -TOL:
            out.append(Violation(
                "ledger", f"negative wallet {balance:.3f}",
                t=report.t, vm=vm,
            ))
        if balance > cfg.credit_cap + TOL:
            out.append(Violation(
                "ledger",
                f"wallet {balance:.3f} exceeds credit cap {cfg.credit_cap}",
                t=report.t, vm=vm,
            ))
    if not cfg.control_enabled or (report.allocations and not ctx.estimates):
        return out  # config A never accrues; without decisions, skip delta
    gains: Dict[str, float] = {}
    for s in report.samples:
        g = ctx.guarantees.get(s.cgroup_path)
        if g is None:
            continue
        if s.consumed_cycles < g:
            gains[s.vm_name] = gains.get(s.vm_name, 0.0) + (g - s.consumed_cycles)
        else:
            gains.setdefault(s.vm_name, 0.0)
    spent = report.auction.spent_per_vm if report.auction else {}
    for vm in set(ctx.prev_wallets) | set(gains) | set(report.wallets):
        if vm not in report.wallets:
            continue  # unregistered mid-tick
        expected = min(
            ctx.prev_wallets.get(vm, 0.0) + gains.get(vm, 0.0), cfg.credit_cap
        )
        expected = max(0.0, expected - spent.get(vm, 0.0))
        if abs(report.wallets[vm] - expected) > TOL:
            out.append(Violation(
                "ledger",
                f"wallet {report.wallets[vm]:.3f} != expected {expected:.3f} "
                f"(prev {ctx.prev_wallets.get(vm, 0.0):.3f} + Eq. 4 gain "
                f"{gains.get(vm, 0.0):.3f} - spent {spent.get(vm, 0.0):.3f})",
                t=report.t, vm=vm,
            ))
    return out


def check_enforcement(ctx: TickContext) -> List[Violation]:
    """Every decided allocation matches the quota the backend holds."""
    controller = ctx.controller
    backend = controller.enforcer.backend
    enforcer = controller.enforcer
    failed = getattr(backend, "last_write_errors", {})
    out: List[Violation] = []
    for path, alloc in ctx.report.allocations.items():
        if path in failed:
            continue  # tracked for retry by the resilience layer
        in_force = backend._last_cap.get(path)
        if in_force is None:
            continue  # cgroup vanished mid-tick (teardown race)
        quota, _period = in_force
        expected = enforcer.quota_us(alloc)
        if quota != expected:
            out.append(Violation(
                "enforcement",
                f"cpu.max quota in force is {quota} µs but allocation "
                f"{alloc:.3f} cycles scales to {expected} µs",
                t=ctx.report.t, path=path,
            ))
        current = controller._current_cap.get(path)
        if current is not None and abs(current - alloc) > TOL:
            out.append(Violation(
                "enforcement",
                f"controller cap memory {current:.3f} != allocation "
                f"{alloc:.3f}",
                t=ctx.report.t, path=path,
            ))
    return out


def check_resilience_fallback(ctx: TickContext) -> List[Violation]:
    """Degraded fallback caps stay within the policy's safety bounds."""
    policy = ctx.controller.resilience
    out: List[Violation] = []
    for path, cycles in ctx.report.degraded.items():
        if cycles < -TOL or cycles > ctx.p_us + TOL:
            out.append(Violation(
                "resilience_fallback",
                f"fallback cap {cycles:.3f} outside [0, {ctx.p_us:.0f}]",
                t=ctx.report.t, path=path,
            ))
            continue
        if policy is not None and policy.degraded_action == "guarantee":
            g = ctx.guarantees.get(path)
            if g is not None and abs(cycles - min(g, ctx.p_us)) > TOL:
                out.append(Violation(
                    "resilience_fallback",
                    f"fallback cap {cycles:.3f} != Eq. 2 guarantee "
                    f"{min(g, ctx.p_us):.3f}",
                    t=ctx.report.t, path=path,
                ))
    return out


def check_samples(ctx: TickContext) -> List[Violation]:
    """Monitoring sanity: finite, non-negative observations."""
    out: List[Violation] = []
    for s in ctx.report.samples:
        if not math.isfinite(s.consumed_cycles) or s.consumed_cycles < -TOL:
            out.append(Violation(
                "samples", f"bad consumption {s.consumed_cycles!r}",
                t=ctx.report.t, path=s.cgroup_path,
            ))
        if not math.isfinite(s.vfreq_mhz) or s.vfreq_mhz < -TOL:
            out.append(Violation(
                "samples", f"bad vfreq estimate {s.vfreq_mhz!r}",
                t=ctx.report.t, path=s.cgroup_path,
            ))
    return out


#: The stable catalogue (name -> oracle), in checking order.
INVARIANTS: Dict[str, Callable[[TickContext], List[Violation]]] = {
    "samples": check_samples,
    "eq2_guarantee": check_eq2_guarantee,
    "eq5_base_cap": check_eq5_base_cap,
    "eq6_market": check_eq6_market,
    "free_distribution": check_free_distribution,
    "budget": check_budget,
    "ledger": check_ledger,
    "enforcement": check_enforcement,
    "resilience_fallback": check_resilience_fallback,
}


class InvariantChecker:
    """Runs the full catalogue against each tick of one controller.

    Stateless except for the previous tick's wallet balances (the
    ledger delta oracle) and the cumulative counters the Prometheus
    export renders (``vfreq_invariant_checks_total`` /
    ``vfreq_invariant_violations_total``).
    """

    def __init__(self, controller: "VirtualFrequencyController") -> None:
        self.controller = controller
        self.checks_total = 0
        self.violations_total = 0
        self.violations_by_invariant: Dict[str, int] = {}
        self.last_violations: List[Violation] = []
        self._prev_wallets: Dict[str, float] = dict(controller.ledger.wallets())

    def resync(self) -> None:
        """Re-baseline stateful oracles (call after a snapshot restore)."""
        self._prev_wallets = dict(self.controller.ledger.wallets())

    def check(self, report: "ControllerReport") -> List[Violation]:
        """Run every oracle against one tick; returns the violations."""
        ctx = _make_context(self.controller, report, self._prev_wallets)
        violations: List[Violation] = []
        for fn in INVARIANTS.values():
            violations.extend(fn(ctx))
        self.checks_total += 1
        self.violations_total += len(violations)
        for v in violations:
            self.violations_by_invariant[v.invariant] = (
                self.violations_by_invariant.get(v.invariant, 0) + 1
            )
        self.last_violations = violations
        self._prev_wallets = dict(report.wallets)
        return violations


# ---------------------------------------------------------------------------
# Rebalance plan admissibility (cluster-scale Eq. 7)
# ---------------------------------------------------------------------------

#: Absolute MHz tolerance for the cluster-scale Eq. 7 comparison.
PLAN_TOL_MHZ = 1e-3


def check_plan_admissible(view, plan, *, allocation_ratio: float = 1.0) -> List[Violation]:
    """Independent Eq. 7 oracle for one rebalance plan.

    ``view`` / ``plan`` are duck-typed (:class:`repro.rebalance.view.
    ClusterStateView` / :class:`repro.rebalance.planner.MigrationPlan`)
    so this module stays import-cycle-free; the arithmetic is done
    inline, NOT via the planner's own ``SimulatedState`` — that is the
    point: a planner bug in its what-if bookkeeping must not be able to
    certify its own plan.

    Checks, per plan: every moved VM exists and starts on the recorded
    source; no VM moves twice; no move touches a VM already migrating
    or a node blacked out by an in-flight migration; and after applying
    *all* moves, every receiving node still satisfies
    ``committed_mhz <= capacity_mhz * allocation_ratio`` (Eq. 7, scaled)
    and its memory budget.  Not registered in :data:`INVARIANTS` — the
    signature differs from the per-tick oracles; the
    :class:`~repro.rebalance.loop.RebalanceLoop` calls it directly and
    drops any plan that fails.
    """
    violations: List[Violation] = []

    def bad(message: str, vm: Optional[str] = None) -> None:
        violations.append(Violation(
            invariant="rebalance_plan", message=message, t=plan.t, vm=vm,
        ))

    pinned = set(view.pinned_nodes())
    migrating = set(view.migrating_vms())
    committed_mhz = {n.node_id: n.committed_mhz for n in view.nodes.values()}
    committed_mb = {n.node_id: n.committed_memory_mb for n in view.nodes.values()}
    receiving: set = set()
    moved: set = set()
    for move in plan.moves:
        vm = view.vms.get(move.vm_name)
        if vm is None:
            bad(f"planned VM does not exist in the snapshot", move.vm_name)
            continue
        if move.vm_name in moved:
            bad("VM planned to move twice in one round", move.vm_name)
            continue
        moved.add(move.vm_name)
        if move.vm_name in migrating:
            bad("VM is already migrating (in-flight blackout)", move.vm_name)
            continue
        if vm.node_id != move.source:
            bad(
                f"recorded source {move.source} but snapshot hosts it on "
                f"{vm.node_id}",
                move.vm_name,
            )
            continue
        if move.source in pinned or move.target in pinned:
            bad(
                f"{move.source}->{move.target} touches a node pinned by an "
                "in-flight migration",
                move.vm_name,
            )
            continue
        target = view.nodes.get(move.target)
        if target is None or not target.powered_on:
            bad(f"target {move.target} missing or powered off", move.vm_name)
            continue
        if vm.vfreq_mhz > target.fmax_mhz:
            bad(
                f"guarantee {vm.vfreq_mhz:g} MHz exceeds target F_MAX "
                f"{target.fmax_mhz:g} MHz (Eq. 2)",
                move.vm_name,
            )
            continue
        committed_mhz[move.source] -= vm.demand_mhz
        committed_mb[move.source] -= vm.memory_mb
        committed_mhz[move.target] += vm.demand_mhz
        committed_mb[move.target] += vm.memory_mb
        receiving.add(move.target)
    for node_id in sorted(receiving):
        node = view.nodes[node_id]
        limit = node.capacity_mhz * allocation_ratio
        if committed_mhz[node_id] > limit + PLAN_TOL_MHZ:
            bad(
                f"plan over-commits {node_id}: "
                f"{committed_mhz[node_id]:.3f} MHz committed > "
                f"{limit:.3f} MHz capacity (Eq. 7 x {allocation_ratio:g})"
            )
        if committed_mb[node_id] > node.memory_mb:
            bad(
                f"plan over-commits {node_id} memory: "
                f"{committed_mb[node_id]} MB > {node.memory_mb} MB"
            )
    return violations
