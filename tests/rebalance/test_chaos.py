"""ChurnChaosCluster: determinism, admission, and the headline claim."""

import pytest

from repro.rebalance.chaos import ChaosConfig, ChurnChaosCluster
from repro.rebalance.loop import RebalanceLoop
from repro.rebalance.planner import MigrationPlanner, PlannerConfig
from repro.sim.metrics import ClusterRebalanceMetrics
from repro.sim.scenario import (
    ClusterScenario,
    chaos_churn,
    chaos_churn_small,
    chaos_churn_xl,
)

SMALL = dict(nodes=6, duration_s=60.0, seed=3, initial_vms=200,
             degrade_rate_per_s=0.05)


def small_cluster(**overrides):
    return ChurnChaosCluster(ChaosConfig(**{**SMALL, **overrides}))


def small_loop(every=2, seed=3):
    return RebalanceLoop(
        MigrationPlanner(config=PlannerConfig(max_moves_per_round=16,
                                              max_moves_per_node=4)),
        every=every, seed=seed,
    )


class TestDeterminism:
    def test_static_run_is_seed_deterministic(self):
        r1 = small_cluster().run().to_dict()
        r2 = small_cluster().run().to_dict()
        assert r1 == r2

    def test_rebalanced_run_is_seed_deterministic(self):
        r1 = small_cluster().run(small_loop()).to_dict()
        r2 = small_cluster().run(small_loop()).to_dict()
        assert r1 == r2

    def test_different_seed_different_trajectory(self):
        r1 = small_cluster(seed=3).run().to_dict()
        r2 = small_cluster(seed=4).run().to_dict()
        assert r1 != r2


class TestMechanics:
    def test_population_and_accounting_consistent(self):
        cluster = small_cluster(degrade_rate_per_s=0.2)
        result = cluster.run()
        hosted = sum(len(n.vms) for n in cluster.nodes.values())
        assert result.final_vms == hosted
        assert result.arrivals >= 0 and result.departures >= 0
        assert result.chaos_events > 0  # 0.2/s over 60 s, ~12 expected

    def test_chaos_degradation_creates_violations(self):
        # a packed cluster plus degradation must register violation time
        result = small_cluster(initial_vms=260).run()
        assert result.violation_vm_seconds > 0

    def test_start_migration_validates(self):
        cluster = small_cluster()
        view = cluster.rebalance_view()
        vm_name = next(iter(view.vms))
        source = view.vms[vm_name].node_id
        with pytest.raises(KeyError):
            cluster.start_migration("ghost", "node-0")
        with pytest.raises(ValueError):
            cluster.start_migration(vm_name, source)  # target == source

    def test_migration_reserves_target_capacity(self):
        cluster = small_cluster(initial_vms=60)  # leave real headroom
        view = cluster.rebalance_view()
        vm_name = next(iter(view.vms))
        vm = view.vms[vm_name]
        target = max(
            (n for n in view.nodes.values() if n.node_id != vm.node_id),
            key=lambda n: n.headroom_mhz,
        ).node_id
        before = cluster.nodes[target].planned_in_mhz
        cluster.start_migration(vm_name, target)
        assert cluster.nodes[target].planned_in_mhz == pytest.approx(
            before + vm.demand_mhz
        )

    def test_metrics_recorder_sees_every_step(self):
        metrics = ClusterRebalanceMetrics()
        small_cluster(duration_s=10.0).run(metrics=metrics)
        assert len(metrics.pressure_mhz.times) == 10
        assert len(metrics.violating_vms.values) == 10


class TestHeadlineClaim:
    def test_rebalancer_beats_static_placement(self):
        """The PR's core claim, miniature: under chaos+churn the
        rebalancer keeps cumulative guarantee-violation time (plus its
        own migration downtime) materially below static placement."""
        static = small_cluster(initial_vms=260).run()
        rebalanced = small_cluster(initial_vms=260).run(small_loop())
        assert rebalanced.migrations > 0
        assert rebalanced.total_bad_vm_seconds < 0.8 * static.total_bad_vm_seconds

    def test_every_move_is_ledger_explainable(self, tmp_path):
        from repro.obs.jsonl import read_jsonl
        from repro.rebalance.ledger import explain_move_from_entries

        path = str(tmp_path / "rebalance.jsonl")
        scenario = ClusterScenario(
            name="mini", nodes=6, vms=260, duration=60.0, seed=3,
            degrade_rate_per_s=0.05, rebalance_every=2, ledger_path=path,
        )
        result = scenario.run()
        assert result.migrations > 0
        entries = read_jsonl(path, kind="round")
        moved = {m["vm"] for e in entries for m in e["moves"] if m["executed"]}
        assert len(moved) > 0
        for vm_name in sorted(moved):
            text = explain_move_from_entries(entries, vm_name)
            assert "migration derivation" in text


class TestSnapshotDialects:
    def test_arrays_snapshot_matches_view(self):
        cluster = small_cluster()
        view = cluster.rebalance_view()
        arrays = cluster.rebalance_arrays()
        assert arrays.to_view() == view

    def test_arrays_cache_survives_migration_but_not_churn(self):
        cluster = small_cluster(initial_vms=60)
        a1 = cluster.rebalance_arrays()
        view = cluster.rebalance_view()
        vm_name = next(iter(view.vms))
        target = max(
            (n for n in view.nodes.values()
             if n.node_id != view.vms[vm_name].node_id),
            key=lambda n: n.headroom_mhz,
        ).node_id
        cluster.start_migration(vm_name, target)
        # Same population: static VM columns are reused, reservations show.
        a2 = cluster.rebalance_arrays()
        assert a2.vm_names == a1.vm_names
        slot = a2.node_index[target]
        assert a2.node_committed_mhz[slot] > a1.node_committed_mhz[slot]
        # Churn invalidates the name cache.
        cluster._destroy(vm_name)
        a3 = cluster.rebalance_arrays()
        assert vm_name not in a3.vm_names

    def test_run_identical_under_both_dialects(self):
        """A planner fed the readable view of every arrays snapshot runs
        the scenario to the identical result."""
        results = {}
        for dialect in ("view", "arrays"):
            cluster, loop = ClusterScenario(
                name="mini", nodes=6, vms=260, duration=60.0, seed=3,
                degrade_rate_per_s=0.05, rebalance_every=2,
            ).build()
            if dialect == "view":
                plan = loop.planner.plan
                loop.planner.plan = (
                    lambda arrays, **kw: plan(arrays.to_view(), **kw)
                )
            results[dialect] = cluster.run(loop).to_dict()
            loop.close()
        assert results["view"] == results["arrays"]
        assert results["view"]["migrations"] > 0

    def test_loop_records_snapshot_and_plan_split(self):
        cluster = small_cluster(initial_vms=260)
        loop = small_loop()
        cluster.run(loop)
        assert loop.rounds_total > 0
        assert len(loop.snapshot_durations) == loop.rounds_total
        assert len(loop.plan_durations) == loop.rounds_total
        meta = loop.ledger.records[0]["meta"]
        assert meta["snapshot_seconds"] >= 0.0
        assert meta["plan_seconds"] >= 0.0


class TestScenarioBuilders:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterScenario(name="bad", nodes=0)
        with pytest.raises(ValueError):
            ClusterScenario(name="bad", rebalance_every=0)

    def test_builders_parameterise_the_headline_pair(self):
        full = chaos_churn(rebalance=False)
        assert (full.nodes, full.vms, full.rebalance) == (200, 10_000, False)
        small = chaos_churn_small()
        assert (small.nodes, small.vms) == (8, 300)
        xl = chaos_churn_xl(rebalance=False)
        assert (xl.nodes, xl.vms, xl.rebalance) == (1000, 50_000, False)
        cluster, loop = small.build()
        assert len(cluster.nodes) == 8
        assert loop is not None and loop.every == 2

    def test_static_build_has_no_loop(self):
        _, loop = chaos_churn_small(rebalance=False).build()
        assert loop is None


class TestFleetPlansPassTheOracle:
    def test_seed44_fleet_rounds_are_never_rejected(self):
        """The 1000-node fleet, seed 44, over the horizon the repository
        benchmark runs: its ninth round used to plan one VM twice (a
        pressure move, then consolidation of the node it landed on), so
        the oracle dropped all 12 moves of that round."""
        cluster, loop = chaos_churn_xl(seed=44, duration=822.0).build()
        rejected = []
        rebalance_once = loop.rebalance_once

        def checked(c):
            plan = rebalance_once(c)
            rejected.append(plan.skipped.get("plan_rejected_by_oracle", 0))
            return plan

        loop.rebalance_once = checked

        class Enough(Exception):
            pass

        class StopAfter:
            steps = 0

            @classmethod
            def record_step(cls, t, **_):
                cls.steps += 1
                if cls.steps >= 50:
                    raise Enough

        with pytest.raises(Enough):
            cluster.run(loop, metrics=StopAfter)
        assert len(rejected) >= 9
        assert sum(rejected) == 0
