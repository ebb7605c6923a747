"""MigrationPlanner: goals, budgets, determinism, oracle admissibility."""

import pytest

from repro.checking.invariants import check_plan_admissible
from repro.placement.migration import MigrationModel
from repro.rebalance.planner import (
    GOALS,
    MigrationPlanner,
    PlannerConfig,
)
from repro.rebalance.view import InFlightView
from tests.rebalance.conftest import make_view, vm


class TestPressureGoal:
    def test_relieves_deficit_with_smallest_covering_vm(self, pressured_view):
        plan = MigrationPlanner().plan(pressured_view)
        assert plan.moves, "expected pressure moves"
        first = plan.moves[0]
        assert first.reason == "pressure"
        assert first.source == "n0"
        # deficit 2400; "a" (3600) is the smallest covering VM
        assert first.vm_name == "a"
        assert plan.pressure_after_mhz < plan.pressure_before_mhz

    def test_falls_back_to_largest_when_none_covers(self):
        view = make_view(
            {
                "n0": [vm("a", 1, 1200.0), vm("b", 1, 1000.0)],
                "n1": [],
            },
            capacities={"n0": 100.0},  # deficit 2100 > any single VM
        )
        plan = MigrationPlanner().plan(view)
        assert [m.vm_name for m in plan.moves][0] == "a"  # largest first

    def test_never_targets_a_pressured_node(self):
        view = make_view(
            {
                "n0": [vm("a", 2, 1800.0)],
                "n1": [vm("b", 4, 1800.0)],  # itself in deficit
                "n2": [],
            },
            capacities={"n0": 2400.0, "n1": 2400.0},
        )
        plan = MigrationPlanner().plan(view)
        assert all(m.target == "n2" for m in plan.moves)

    def test_pinned_source_skipped(self, ):
        view = make_view(
            {
                "n0": [vm("a", 2, 1800.0), vm("x")],
                "n1": [],
                "n2": [],
            },
            capacities={"n0": 2400.0},
            in_flight=[InFlightView("x", "n0", "n1", arrives_at=9.0)],
        )
        plan = MigrationPlanner().plan(view)
        assert not plan.moves
        assert plan.skipped.get("source_pinned", 0) >= 1

    def test_no_target_recorded_when_cluster_full(self):
        view = make_view(
            {"n0": [vm("a", 4, 2400.0)], "n1": [vm("b", 4, 2400.0)]},
            capacities={"n0": 4800.0, "n1": 9600.0},
        )
        plan = MigrationPlanner().plan(view)
        assert not plan.moves
        assert plan.skipped.get("no_target", 0) >= 1


class TestDrainGoal:
    def test_drain_empties_node_largest_first(self):
        view = make_view(
            {"n0": [vm("a", 2, 1800.0), vm("b")], "n1": [], "n2": []}
        )
        plan = MigrationPlanner().plan(view, drain=["n0"])
        drained = [m for m in plan.moves if m.reason == "drain"]
        assert [m.vm_name for m in drained] == ["a", "b"]
        assert all(m.target != "n0" for m in plan.moves)

    def test_unknown_drain_node_raises(self):
        view = make_view({"n0": []})
        with pytest.raises(KeyError, match="ghost"):
            MigrationPlanner().plan(view, drain=["ghost"])

    def test_drain_ignores_per_source_cap(self):
        cfg = PlannerConfig(max_moves_per_round=16, max_moves_per_node=1,
                            consolidate=False)
        view = make_view(
            {"n0": [vm(f"v{i}") for i in range(3)], "n1": [], "n2": [],
             "n3": []}
        )
        plan = MigrationPlanner(config=cfg).plan(view, drain=["n0"])
        # 3 moves out of n0 even though max_moves_per_node=1: targets
        # still respect their own cap, so each lands somewhere else.
        assert len([m for m in plan.moves if m.source == "n0"]) == 3

    def test_drain_respects_round_budget(self):
        cfg = PlannerConfig(max_moves_per_round=2, consolidate=False)
        view = make_view(
            {"n0": [vm(f"v{i}") for i in range(5)], "n1": [], "n2": []}
        )
        plan = MigrationPlanner(config=cfg).plan(view, drain=["n0"])
        assert len(plan.moves) == 2
        assert plan.skipped.get("round_budget", 0) >= 1


class TestConsolidateGoal:
    def test_whole_node_evacuation_only(self):
        # n0 at 12.5% utilisation can fully empty onto n1 (used).
        view = make_view(
            {"n0": [vm("a")], "n1": [vm("b"), vm("c")], "n2": []},
        )
        plan = MigrationPlanner().plan(view)
        cons = [m for m in plan.moves if m.reason == "consolidate"]
        assert {m.vm_name for m in cons} == {"a"}
        assert all(m.target == "n1" for m in cons)  # used node, not empty n2

    def test_partial_evacuation_rejected(self):
        # n0's two VMs cannot both fit anywhere: no consolidation moves.
        view = make_view(
            {
                "n0": [vm("a", 1, 1200.0), vm("b", 1, 1200.0)],
                "n1": [vm("c", 3, 2400.0)],  # headroom 2400: takes 1 VM... 2 VMs = 2400 exactly
            },
            capacities={"n0": 9600.0, "n1": 8400.0},
        )
        cfg = PlannerConfig(max_moves_per_round=1)  # budget forces partial
        plan = MigrationPlanner(config=cfg).plan(view)
        assert not [m for m in plan.moves if m.reason == "consolidate"]
        assert plan.skipped.get("consolidate_unplaceable", 0) >= 1

    @pytest.mark.parametrize("dialect", ["view", "arrays"])
    def test_vm_moved_by_pressure_is_not_consolidated_again(self, dialect):
        """Pressure moves v0 off n1 onto the empty n2; n2 is then a
        consolidation candidate whose only VM is v0.  Moving v0 on again
        would plan it twice and the oracle would drop the whole round."""
        from repro.rebalance.arrays import ClusterStateArrays

        view = make_view(
            {
                "n0": [],
                "n1": [vm("v0", 1, 600.0), vm("v1", 2, 1800.0)],
                "n2": [],
                "n3": [vm("v2", 1, 600.0)],
            },
            capacities={"n0": 9600.0, "n1": 3600.0, "n2": 3600.0, "n3": 9600.0},
        )
        snapshot = view if dialect == "view" else ClusterStateArrays.from_view(view)
        plan = MigrationPlanner().plan(snapshot, seed=0)
        assert [(m.vm_name, m.source, m.target, m.reason) for m in plan.moves] == [
            ("v0", "n1", "n2", "pressure"),
            ("v2", "n3", "n2", "consolidate"),  # n2 stays; n3 empties onto it
        ]
        assert plan.skipped.get("consolidate_planned_vm") == 1
        assert check_plan_admissible(view, plan) == []

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzzed_plans_never_move_a_vm_twice(self, seed):
        """Random small clusters: both dialects plan identically and no
        plan trips the oracle's double-move check."""
        import random

        from repro.rebalance.arrays import ClusterStateArrays

        rng = random.Random(seed)
        assignments, capacities, k = {}, {}, 0
        for i in range(rng.randint(3, 5)):
            vms = []
            for _ in range(rng.randint(0, 3)):
                vms.append(vm(f"v{k}", rng.choice([1, 2]), rng.choice([600.0, 1200.0, 1800.0])))
                k += 1
            assignments[f"n{i}"] = vms
            capacities[f"n{i}"] = rng.choice([3600.0, 4800.0, 9600.0])
        view = make_view(assignments, capacities=capacities)
        ratio = rng.choice([1.0, 1.2])
        drain = rng.choice([[], ["n0"]])
        planner = MigrationPlanner(config=PlannerConfig(allocation_ratio=ratio))
        plan = planner.plan(view, seed=seed, drain=drain)
        twin = planner.plan(ClusterStateArrays.from_view(view), seed=seed, drain=drain)
        assert plan.moves == twin.moves
        assert plan.skipped == twin.skipped
        assert check_plan_admissible(view, plan, allocation_ratio=ratio) == []

    def test_consolidate_disabled(self):
        view = make_view({"n0": [vm("a")], "n1": [vm("b"), vm("c")]})
        cfg = PlannerConfig(consolidate=False)
        plan = MigrationPlanner(config=cfg).plan(view)
        assert not plan.moves


class TestBudgetsAndDeterminism:
    def test_round_budget_caps_moves(self):
        view = make_view(
            {"n0": [vm(f"v{i}", 1, 2400.0) for i in range(8)], "n1": [], "n2": []},
            capacities={"n0": 2400.0},
        )
        cfg = PlannerConfig(max_moves_per_round=3, max_moves_per_node=8,
                            consolidate=False)
        plan = MigrationPlanner(config=cfg).plan(view)
        assert len(plan.moves) == 3

    def test_per_node_budget_caps_targets(self):
        view = make_view(
            {"n0": [vm(f"v{i}", 1, 2400.0) for i in range(8)], "n1": []},
            capacities={"n0": 2400.0},
        )
        cfg = PlannerConfig(max_moves_per_round=8, max_moves_per_node=2,
                            consolidate=False)
        plan = MigrationPlanner(config=cfg).plan(view)
        # source n0 capped at 2 moves; n1 is the only target anyway
        assert len(plan.moves) <= 2

    def test_same_view_same_seed_identical_plan(self, pressured_view):
        p1 = MigrationPlanner().plan(pressured_view, seed=42)
        p2 = MigrationPlanner().plan(pressured_view, seed=42)
        assert p1.moves == p2.moves
        assert p1.skipped == p2.skipped
        assert p1.pressure_after_mhz == p2.pressure_after_mhz

    def test_seed_breaks_equal_headroom_ties(self):
        # two identical empty targets: only the seeded rank distinguishes
        view = make_view(
            {"n0": [vm("a", 2, 1800.0), vm("b")], "n1": [], "n2": []},
            capacities={"n0": 2400.0},
        )
        targets = {
            MigrationPlanner().plan(view, seed=s).moves[0].target
            for s in range(16)
        }
        assert targets == {"n1", "n2"}

    def test_config_validation(self):
        for kwargs in (
            {"max_moves_per_round": 0},
            {"max_moves_per_node": 0},
            {"allocation_ratio": 0.0},
            {"consolidate_below": 0.0},
            {"consolidate_below": 1.0},
        ):
            with pytest.raises(ValueError):
                PlannerConfig(**kwargs)


class TestPlanQuality:
    def test_every_plan_passes_the_oracle(self, pressured_view):
        for seed in range(8):
            plan = MigrationPlanner().plan(pressured_view, seed=seed)
            assert check_plan_admissible(pressured_view, plan) == []

    def test_moves_are_costed_by_the_model(self):
        model = MigrationModel(link_gbps=10.0, dirty_page_overhead=1.0,
                               downtime_s=0.25)
        view = make_view(
            {"n0": [vm("a", 2, 1800.0, 1250)], "n1": []},
            capacities={"n0": 2400.0},
        )
        plan = MigrationPlanner(model=model).plan(view)
        move = plan.moves[0]
        assert move.transfer_s == pytest.approx(1.0)  # 1250 MB at 10 Gbps
        assert move.cost_s == pytest.approx(1.25)
        assert move.score == pytest.approx(move.relief_mhz / 1.25)

    def test_reasons_are_goal_names(self, pressured_view):
        plan = MigrationPlanner().plan(pressured_view, drain=["n1"])
        assert {m.reason for m in plan.moves} <= set(GOALS)
