"""Frequency-guarantee-aware migration planning.

Each round the planner turns one frozen
:class:`~repro.rebalance.view.ClusterStateView` into a bounded
:class:`MigrationPlan` serving three goals, in priority order:

1. **pressure** — relieve Eq. 7 deficits: a node whose committed
   guarantees exceed its (possibly degraded) capacity sheds VMs until
   the deficit is gone, smallest-covering VM first (the
   :class:`~repro.placement.migration.ThresholdMigrationPolicy` victim
   rule, restated in MHz);
2. **drain** — evacuate nodes flagged for maintenance completely,
   largest VM first;
3. **consolidate** — defragment: a node under the consolidation
   watermark is evacuated *only if the whole node empties* onto used
   Eq. 7-admissible targets, so the move spend actually frees a node.

Targets are always chosen best-fit (least headroom left after the
move, seeded tie-break) against the what-if
:class:`~repro.rebalance.simstate.SimulatedState`, so a plan can never
over-commit a node even when several moves share a target.  Every move
is costed with the existing pre-copy
:class:`~repro.placement.migration.MigrationModel` and scored as
relieved/freed guarantee MHz per second of migration cost.

Plans are deterministic: all candidate iteration is sorted, and the
only randomness is a seeded tie-break rank — same view + same seed
gives the identical plan, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.placement.migration import MigrationModel
from repro.rebalance.arrays import ClusterStateArrays, SimulatedArrays
from repro.rebalance.simstate import SimulatedState
from repro.rebalance.view import ClusterStateView, VmView

#: The planner's three goals, in execution priority order.
GOALS = ("pressure", "drain", "consolidate")


@dataclass(frozen=True)
class PlannedMove:
    """One scored, admissibility-checked candidate migration."""

    vm_name: str
    source: str
    target: str
    reason: str  # one of GOALS
    demand_mhz: float
    memory_mb: int
    transfer_s: float
    downtime_s: float
    cost_s: float
    relief_mhz: float  # pressure relieved / guarantee MHz freed
    score: float  # relief_mhz / cost_s
    #: Eq. 7 headroom the target keeps once this move (and every move
    #: planned before it this round) lands — never negative by design.
    target_headroom_after_mhz: float = 0.0


@dataclass
class MigrationPlan:
    """One round's bounded batch of moves, plus why candidates fell out."""

    t: float
    seed: int
    moves: List[PlannedMove] = field(default_factory=list)
    considered: int = 0
    skipped: Dict[str, int] = field(default_factory=dict)
    #: Cluster pressure before/after, for the ledger and `plan` output.
    pressure_before_mhz: float = 0.0
    pressure_after_mhz: float = 0.0
    fragmentation_before: float = 0.0

    def moves_by_reason(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for move in self.moves:
            out[move.reason] = out.get(move.reason, 0) + 1
        return out

    def total_cost_s(self) -> float:
        return sum(m.cost_s for m in self.moves)

    def _skip(self, reason: str, count: int = 1) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + count


@dataclass(frozen=True)
class PlannerConfig:
    """Batch bounds and goal knobs for one planner instance."""

    max_moves_per_round: int = 8
    #: Per-round cap on moves touching one node as source or target
    #: (drain ignores it for the drained source — evacuation must end).
    max_moves_per_node: int = 2
    allocation_ratio: float = 1.0
    consolidate: bool = True
    #: A used node at or below this utilisation is an evacuation
    #: candidate for the consolidation goal.
    consolidate_below: float = 0.35

    def __post_init__(self) -> None:
        if self.max_moves_per_round < 1:
            raise ValueError("max_moves_per_round must be >= 1")
        if self.max_moves_per_node < 1:
            raise ValueError("max_moves_per_node must be >= 1")
        if self.allocation_ratio <= 0:
            raise ValueError("allocation_ratio must be positive")
        if not 0.0 < self.consolidate_below < 1.0:
            raise ValueError("consolidate_below must be in (0, 1)")


class MigrationPlanner:
    """Produces one bounded, deterministic plan per cluster snapshot."""

    def __init__(
        self,
        model: Optional[MigrationModel] = None,
        config: Optional[PlannerConfig] = None,
    ) -> None:
        self.model = model or MigrationModel()
        self.config = config or PlannerConfig()

    def plan(
        self,
        view: Union[ClusterStateView, ClusterStateArrays],
        *,
        drain: Sequence[str] = (),
        seed: int = 0,
    ) -> MigrationPlan:
        """Score one round of moves against the frozen snapshot.

        Accepts either snapshot dialect: the frozen-dataclass
        :class:`ClusterStateView` plans through the scalar
        :class:`SimulatedState`; the SoA :class:`ClusterStateArrays`
        through :class:`SimulatedArrays`, whose best-fit target scan is
        one masked NumPy reduction per move instead of a Python loop
        over every node.  Both paths emit bit-identical plans for the
        same snapshot + seed (fuzzed in ``tests/rebalance``).
        """
        for node_id in drain:
            if node_id not in view.nodes:
                raise KeyError(f"unknown drain node: {node_id}")
        vectorized = isinstance(view, ClusterStateArrays)
        if vectorized:
            state: Union[SimulatedState, SimulatedArrays] = SimulatedArrays(
                view, allocation_ratio=self.config.allocation_ratio
            )
        else:
            state = SimulatedState(
                view, allocation_ratio=self.config.allocation_ratio
            )
        plan = MigrationPlan(
            t=view.t,
            seed=seed,
            pressure_before_mhz=view.total_pressure_mhz(),
            fragmentation_before=view.fragmentation_score(),
        )
        # Seeded tie-break rank per node: stable within the round, so
        # equal-headroom targets resolve by seed instead of dict order.
        # Both dialects draw the rank stream over the same sorted ids,
        # so rank[node] is seed-equal across scalar and vectorized runs.
        rng = random.Random(seed)
        self._rank = {node_id: rng.random() for node_id in sorted(state.nodes)}
        self._node_moves: Dict[str, int] = {}
        #: VMs already in this round's plan: no later pass may move one
        #: again (the admissibility oracle rejects a double move).  Only
        #: consolidation can meet one: pressure targets carry no deficit
        #: when picked and drain never targets a drained node.
        self._planned: set = set()
        if vectorized:
            self._slot_of: Optional[Dict[str, int]] = state.node_index
            self._rank_arr: Optional[np.ndarray] = np.asarray(
                [self._rank[node_id] for node_id in state.node_ids]
            )
            self._moves_arr: Optional[np.ndarray] = np.zeros(
                len(state.node_ids), dtype=np.int64
            )
        else:
            self._slot_of = None
            self._rank_arr = None
            self._moves_arr = None
        drain_set = set(drain)

        self._plan_pressure(state, plan, drain_set)
        self._plan_drain(state, plan, drain_set)
        if self.config.consolidate:
            self._plan_consolidate(state, plan, drain_set)

        plan.pressure_after_mhz = sum(
            n.pressure_mhz for n in state.nodes.values()
        )
        return plan

    # -- goal passes ----------------------------------------------------------

    def _plan_pressure(
        self, state: SimulatedState, plan: MigrationPlan, drain: set
    ) -> None:
        pressured = sorted(
            (n for n in state.nodes.values() if n.pressure_mhz > 0),
            key=lambda n: (-n.pressure_mhz, n.node_id),
        )
        for node in pressured:
            if node.node_id in state.pinned:
                plan._skip("source_pinned")
                continue
            while node.pressure_mhz > 0 and not self._exhausted(plan):
                victim = self._pick_pressure_victim(state, node.node_id)
                if victim is None:
                    plan._skip("no_victim")
                    break
                relief = min(victim.demand_mhz, node.pressure_mhz)
                if not self._move(
                    state, plan, victim, reason="pressure",
                    relief_mhz=relief, drain=drain,
                ):
                    break

    def _plan_drain(
        self, state: SimulatedState, plan: MigrationPlan, drain: set
    ) -> None:
        for node_id in sorted(drain):
            if node_id in state.pinned:
                plan._skip("source_pinned")
                continue
            for vm in state.movable_vms_on(node_id):
                if self._exhausted(plan):
                    plan._skip("round_budget")
                    return
                self._move(
                    state, plan, vm, reason="drain",
                    relief_mhz=vm.demand_mhz, drain=drain,
                    ignore_source_cap=True,
                )

    def _plan_consolidate(
        self, state: SimulatedState, plan: MigrationPlan, drain: set
    ) -> None:
        candidates = sorted(
            (
                n
                for n in state.nodes.values()
                if n.powered_on
                and n.num_vms > 0
                and n.node_id not in state.pinned
                and n.node_id not in drain
                and 0.0 < n.utilisation <= self.config.consolidate_below
            ),
            key=lambda n: (n.committed_mhz, n.node_id),
        )
        emptied: set = set()
        for node in candidates:
            if self._exhausted(plan):
                return
            vms = state.movable_vms_on(node.node_id)
            if any(vm.name in self._planned for vm in vms):
                # It received a VM this round: emptying it would move
                # that VM twice.
                plan._skip("consolidate_planned_vm")
                continue
            if not vms or len(vms) != node.num_vms:
                plan._skip("consolidate_pinned_vm")
                continue
            # Trial on a clone: the node must empty completely within
            # the remaining budget, else the moves buy nothing.
            trial = state.clone()
            routes: List[Tuple[VmView, str]] = []
            ok = True
            budget = self.config.max_moves_per_round - len(plan.moves)
            for vm in vms:
                if len(routes) >= budget:
                    ok = False
                    break
                target = self._pick_target(
                    trial, vm,
                    exclude=emptied | {node.node_id},
                    used_only=True,
                )
                if target is None:
                    ok = False
                    break
                trial.apply_move(vm.name, target)
                routes.append((vm, target))
            if not ok:
                plan._skip("consolidate_unplaceable")
                continue
            for vm, target in routes:
                state.apply_move(vm.name, target)
                self._record(
                    plan, vm, source=node.node_id, target=target,
                    reason="consolidate", relief_mhz=vm.demand_mhz,
                    headroom_after=state.nodes[target].headroom_mhz,
                )
            emptied.add(node.node_id)

    # -- shared mechanics -----------------------------------------------------

    def _pick_pressure_victim(
        self, state: SimulatedState, node_id: str
    ) -> Optional[VmView]:
        """Smallest VM covering the deficit, else the largest
        (the ThresholdMigrationPolicy rule, in guarantee MHz)."""
        node = state.nodes[node_id]
        vms = state.movable_vms_on(node_id)
        if not vms:
            return None
        covering = [v for v in vms if v.demand_mhz >= node.pressure_mhz]
        if covering:
            return min(covering, key=lambda v: (v.demand_mhz, v.name))
        return max(vms, key=lambda v: (v.demand_mhz, v.name))

    def _pick_target(
        self,
        state: Union[SimulatedState, SimulatedArrays],
        vm: VmView,
        *,
        exclude: set = frozenset(),
        used_only: bool = False,
    ) -> Optional[str]:
        """Best-fit: admissible node keeping the least headroom after
        the move; ties break by seeded rank, then id."""
        if isinstance(state, SimulatedArrays):
            return self._pick_target_arrays(
                state, vm, exclude=exclude, used_only=used_only
            )
        best: Optional[Tuple[float, float, str]] = None
        for node_id in sorted(state.nodes):
            node = state.nodes[node_id]
            if node_id in exclude:
                continue
            if used_only and not node.vm_names:
                continue
            if self._node_moves.get(node_id, 0) >= self.config.max_moves_per_node:
                continue
            if node.pressure_mhz > 0:
                continue  # never add load to a node already in deficit
            if not state.can_accept(vm.name, node_id):
                continue
            key = (
                state.fit_after_mhz(vm.name, node_id),
                self._rank[node_id],
                node_id,
            )
            if best is None or key < best:
                best = key
        return best[2] if best is not None else None

    def _pick_target_arrays(
        self,
        state: SimulatedArrays,
        vm: VmView,
        *,
        exclude: set = frozenset(),
        used_only: bool = False,
    ) -> Optional[str]:
        """Vectorized best-fit — one masked NumPy pass over all nodes.

        Replays the scalar selection exactly: the scalar loop keeps the
        lexicographic minimum of ``(fit, rank, node_id)`` over sorted
        ids, which equals min-fit → min-rank → lowest slot here because
        node slots are in sorted-id order and both dialects compute
        ``fit`` with the same subtraction order.
        """
        candidates, fit = state.admissible_fit(
            vm.name,
            exclude=exclude,
            used_only=used_only,
            node_moves=self._moves_arr,
            max_moves_per_node=self.config.max_moves_per_node,
        )
        if candidates.size == 0:
            return None
        tied = candidates[fit == fit.min()]
        if tied.size > 1:
            ranks = self._rank_arr[tied]
            tied = tied[ranks == ranks.min()]
        return state.node_ids[int(tied[0])]

    def _move(
        self,
        state: SimulatedState,
        plan: MigrationPlan,
        vm: VmView,
        *,
        reason: str,
        relief_mhz: float,
        drain: set,
        ignore_source_cap: bool = False,
    ) -> bool:
        source = state.host_of(vm.name)
        if not ignore_source_cap and (
            self._node_moves.get(source, 0) >= self.config.max_moves_per_node
        ):
            plan._skip("source_budget")
            return False
        target = self._pick_target(state, vm, exclude=drain | {source})
        if target is None:
            plan._skip("no_target")
            return False
        state.apply_move(vm.name, target)
        self._record(
            plan, vm, source=source, target=target,
            reason=reason, relief_mhz=relief_mhz,
            headroom_after=state.nodes[target].headroom_mhz,
        )
        return True

    def _record(
        self,
        plan: MigrationPlan,
        vm: VmView,
        *,
        source: str,
        target: str,
        reason: str,
        relief_mhz: float,
        headroom_after: float,
    ) -> None:
        transfer = self.model.transfer_seconds(vm.memory_mb)
        cost = self.model.total_seconds(vm.memory_mb)
        plan.moves.append(
            PlannedMove(
                vm_name=vm.name,
                source=source,
                target=target,
                reason=reason,
                demand_mhz=vm.demand_mhz,
                memory_mb=vm.memory_mb,
                transfer_s=transfer,
                downtime_s=self.model.downtime_s,
                cost_s=cost,
                relief_mhz=relief_mhz,
                score=relief_mhz / cost if cost > 0 else float("inf"),
                target_headroom_after_mhz=headroom_after,
            )
        )
        plan.considered += 1
        self._planned.add(vm.name)
        self._node_moves[source] = self._node_moves.get(source, 0) + 1
        self._node_moves[target] = self._node_moves.get(target, 0) + 1
        if self._moves_arr is not None:
            self._moves_arr[self._slot_of[source]] += 1
            self._moves_arr[self._slot_of[target]] += 1

    def _exhausted(self, plan: MigrationPlan) -> bool:
        return len(plan.moves) >= self.config.max_moves_per_round
