"""RebalanceLoop: cadence, execution, oracle defence, drain, observability."""

from types import SimpleNamespace

import pytest

from repro.obs.jsonl import EventLog
from repro.obs.tracing import RingSink, Tracer
from repro.rebalance.arrays import ClusterStateArrays
from repro.rebalance.loop import RebalanceLoop
from repro.rebalance.planner import (
    MigrationPlan,
    MigrationPlanner,
    PlannedMove,
    PlannerConfig,
)
from tests.rebalance.conftest import make_view, vm


class FakeCluster:
    """Static-view driver implementing the two-method loop port."""

    def __init__(self, view, fail_for=()):
        self.view = view
        self.fail_for = set(fail_for)
        self.started = []

    def rebalance_arrays(self):
        return ClusterStateArrays.from_view(self.view)

    def start_migration(self, vm_name, target_id):
        if vm_name in self.fail_for:
            raise ValueError(f"{vm_name} vanished between snapshot and exec")
        self.started.append((vm_name, target_id))
        return SimpleNamespace(duration_s=2.0)


def pressured_cluster(**kwargs):
    return FakeCluster(
        make_view(
            {
                "n0": [vm("a", 2, 1800.0), vm("b")],
                "n1": [],
                "n2": [],
            },
            capacities={"n0": 2400.0},
        ),
        **kwargs,
    )


class BadPlanner(MigrationPlanner):
    """Emits a move for a VM the snapshot does not host — a planner bug
    the oracle must catch."""

    def plan(self, view, *, drain=(), seed=0):
        plan = MigrationPlan(t=view.t, seed=seed)
        plan.moves.append(PlannedMove(
            vm_name="ghost", source="n0", target="n1", reason="pressure",
            demand_mhz=1200.0, memory_mb=512, transfer_s=1.0,
            downtime_s=0.5, cost_s=1.5, relief_mhz=1200.0, score=800.0,
        ))
        return plan


class TestCadence:
    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            RebalanceLoop(every=0)

    def test_runs_only_on_period_ticks(self):
        loop = RebalanceLoop(every=3)
        cluster = pressured_cluster()
        results = [
            loop.maybe_rebalance(cluster, tick) for tick in range(1, 7)
        ]
        ran = [r is not None for r in results]
        assert ran == [False, False, True, False, False, True]
        assert loop.rounds_total == 2

    def test_round_seed_advances_per_round(self):
        loop = RebalanceLoop(every=1, seed=100)
        cluster = pressured_cluster()
        p0 = loop.rebalance_once(cluster)
        p1 = loop.rebalance_once(cluster)
        assert p0.seed == 100
        assert p1.seed == 101


class TestExecution:
    def test_plan_is_executed_and_counted(self):
        loop = RebalanceLoop(every=1)
        cluster = pressured_cluster()
        plan = loop.rebalance_once(cluster)
        assert plan.moves
        assert len(cluster.started) == len(plan.moves)
        assert loop.migrations_total.get("pressure", 0) >= 1
        assert loop.migration_hist.count == len(cluster.started)
        assert loop.round_hist.count == 1
        assert len(loop.round_durations) == 1

    def test_stale_move_rejected_individually(self):
        loop = RebalanceLoop(every=1)
        cluster = pressured_cluster(fail_for={"a"})
        loop.rebalance_once(cluster)
        assert loop.migrations_rejected == 1
        records = loop.ledger.records[0]["moves"]
        by_vm = {r["vm"]: r for r in records}
        assert by_vm["a"]["executed"] is False
        assert "vanished" in by_vm["a"]["reject_reason"]

    def test_oracle_drops_inadmissible_plan_wholesale(self):
        loop = RebalanceLoop(BadPlanner(), every=1)
        cluster = pressured_cluster()
        plan = loop.rebalance_once(cluster)
        assert cluster.started == []  # nothing reached the cluster
        assert plan.moves == []
        assert plan.skipped.get("plan_rejected_by_oracle", 0) == 1
        record = loop.ledger.records[0]["moves"][0]
        assert record["executed"] is False
        assert "does not exist" in record["reject_reason"]


class TestLedgerAndSpans:
    def test_an_empty_log_passed_in_is_the_one_written(self):
        """An empty log is falsy by length; the loop must still keep it."""
        log = EventLog()
        loop = RebalanceLoop(every=1, ledger=log)
        assert loop.ledger is log
        loop.rebalance_once(pressured_cluster())
        assert len(log) == 1 and log.records[0]["kind"] == "round"

    def test_round_meta_recorded(self):
        loop = RebalanceLoop(every=4, seed=9)
        plan = loop.rebalance_once(pressured_cluster())
        meta = loop.ledger.records[0]["meta"]
        assert meta["round"] == 0
        assert meta["seed"] == 9
        assert meta["every"] == 4
        assert meta["n_moves"] == len(loop.ledger.records[0]["moves"])
        assert meta["pressure_before_mhz"] == plan.pressure_before_mhz
        assert "round_seconds" in meta

    def test_spans_emitted_with_rebalance_prefix(self):
        sink = RingSink()
        loop = RebalanceLoop(every=1, tracer=Tracer([sink]))
        loop.rebalance_once(pressured_cluster())
        names = {s.name for s in sink.spans}
        assert "rebalance:round" in names
        assert "rebalance:migration" in names


class TestDrainWorkflow:
    def test_drain_flag_produces_drain_moves(self):
        loop = RebalanceLoop(
            MigrationPlanner(config=PlannerConfig(max_moves_per_round=16)),
            every=1,
        )
        cluster = FakeCluster(
            make_view({"n0": [vm("a"), vm("b")], "n1": [vm("c")], "n2": []})
        )
        loop.request_drain("n0")
        plan = loop.rebalance_once(cluster)
        assert {m.vm_name for m in plan.moves if m.reason == "drain"} == {"a", "b"}
        # n0 still shows VMs in the (static) snapshot: not yet drained
        assert loop.drained_nodes() == []

    def test_drained_nodes_reports_empty_flagged_nodes(self):
        loop = RebalanceLoop(every=1)
        cluster = FakeCluster(make_view({"n0": [], "n1": [vm("c")]}))
        loop.request_drain("n0")
        loop.rebalance_once(cluster)
        assert loop.drained_nodes() == ["n0"]
        loop.cancel_drain("n0")
        assert loop.drained_nodes() == []

    def test_drain_flag_for_unknown_node_ignored(self):
        loop = RebalanceLoop(every=1)
        loop.request_drain("ghost")
        plan = loop.rebalance_once(FakeCluster(make_view({"n0": []})))
        assert plan.moves == []  # no KeyError: unknown drains filtered
