"""Cluster rebalancer: frequency-guarantee-aware live migration.

The control plane ROADMAP item 1 asks for, layered *on top of* the
per-node controllers: snapshot the cluster
(:class:`~repro.rebalance.view.ClusterStateView`), plan bounded batches
of Eq. 7-admissible moves on a what-if copy
(:class:`~repro.rebalance.simstate.SimulatedState` /
:class:`~repro.rebalance.planner.MigrationPlanner` — relieve guarantee
pressure, consolidate, drain), execute them with in-flight blackouts
through :class:`~repro.rebalance.loop.RebalanceLoop`, and make every
move explainable via the loop's rebalance ledger (``repro explain
--move``, :mod:`repro.rebalance.ledger`).
"""

from repro.rebalance.arrays import ClusterStateArrays, SimulatedArrays
from repro.rebalance.chaos import (
    ChaosConfig,
    ChaosResult,
    ChurnChaosCluster,
    MigrationStarted,
)
from repro.rebalance.ledger import (
    explain_move,
    explain_move_from_entries,
    lookup_move,
)
from repro.rebalance.loop import RebalanceLoop
from repro.rebalance.planner import (
    GOALS,
    MigrationPlan,
    MigrationPlanner,
    PlannedMove,
    PlannerConfig,
)
from repro.rebalance.simstate import SimulatedNode, SimulatedState
from repro.rebalance.view import (
    ClusterStateView,
    InFlightView,
    NodeView,
    VmView,
)

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "ChurnChaosCluster",
    "ClusterStateArrays",
    "ClusterStateView",
    "GOALS",
    "InFlightView",
    "MigrationPlan",
    "MigrationPlanner",
    "MigrationStarted",
    "NodeView",
    "PlannedMove",
    "PlannerConfig",
    "RebalanceLoop",
    "SimulatedArrays",
    "SimulatedNode",
    "SimulatedState",
    "VmView",
    "explain_move",
    "explain_move_from_entries",
    "lookup_move",
]
