"""Rules of the committed-baseline perf gate
(``benchmarks/check_perf_regression.py``)."""

import importlib.util
import pathlib

import pytest

_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks" / "check_perf_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_perf_regression", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _run(baseline, fresh, tolerance=0.25):
    failures = []
    compared = gate.compare(baseline, fresh, tolerance, failures)
    return compared, failures


class TestRelativeTolerance:
    def test_within_tolerance_passes(self):
        compared, failures = _run(
            {"s": {"a_seconds_per_tick": 0.100}},
            {"s": {"a_seconds_per_tick": 0.120}},
        )
        assert compared == 1 and failures == []

    def test_beyond_tolerance_and_slack_fails(self):
        limit = 0.100 * 1.25 + gate.ABS_SLACK_S
        _, failures = _run(
            {"s": {"a_seconds_per_tick": 0.100}},
            {"s": {"a_seconds_per_tick": limit + 1e-6}},
        )
        assert failures == [("s", "a_seconds_per_tick", 0.100, limit + 1e-6)]

    def test_tolerance_is_configurable(self):
        base = {"s": {"a_seconds_per_tick": 0.100}}
        fresh = {"s": {"a_seconds_per_tick": 0.140}}
        assert _run(base, fresh, tolerance=0.25)[1]
        assert not _run(base, fresh, tolerance=0.40)[1]

    def test_only_gated_leaves_compared(self):
        compared, failures = _run(
            {"s": {"ticks": 3, "scalar": {"total_seconds_per_tick": 0.001},
                   "nodes": {"8": {"x_seconds_per_tick": 0.010}}}},
            {"s": {"ticks": 300, "scalar": {"total_seconds_per_tick": 9.0},
                   "nodes": {"8": {"x_seconds_per_tick": 0.011}}}},
        )
        assert compared == 1 and failures == []

    def test_sections_in_one_file_only_are_skipped(self):
        compared, failures = _run(
            {"old": {"a_seconds_per_tick": 0.1}},
            {"new": {"b_seconds_per_tick": 9.0}},
        )
        assert compared == 0 and failures == []


class TestMissingLeaf:
    def test_committed_leaf_missing_from_fresh_section_fails(self):
        compared, failures = _run(
            {"s": {"nodes": {"8": {"threaded_seconds_per_tick": 0.005,
                                   "shm_seconds_per_tick": 0.010}}}},
            {"s": {"nodes": {"8": {"serial_seconds_per_tick": 0.005,
                                   "shm_seconds_per_tick": 0.010}}}},
        )
        assert compared == 1
        assert failures == [
            ("s", "nodes.8.threaded_seconds_per_tick", 0.005, None)
        ]

    def test_new_fresh_leaf_is_not_a_failure(self):
        _, failures = _run(
            {"s": {"a_seconds_per_tick": 0.1}},
            {"s": {"a_seconds_per_tick": 0.1, "b_seconds_per_tick": 0.2}},
        )
        assert failures == []

    def test_ungated_leaf_may_go_missing(self):
        _, failures = _run(
            {"s": {"a_seconds_per_tick": 0.1, "ticks": 5}},
            {"s": {"a_seconds_per_tick": 0.1}},
        )
        assert failures == []


class TestHardBudgets:
    @pytest.mark.parametrize("section, leaf", [
        ("tick10k", "max_tick_seconds"),
        ("chaos1000_smoke", "view_plan_p50_seconds_per_round"),
        ("node_curve", "sharded_shm_max_tick_seconds"),
        ("slo_smoke", "observe_p50_seconds_per_tick"),
    ])
    def test_budget_is_one_control_period(self, section, leaf):
        # A generous baseline: only the hard budget can fail here.
        base = {section: {leaf: 10.0, "control_period_s": 1.0}}
        ok = {section: {leaf: 0.999, "control_period_s": 1.0}}
        over = {section: {leaf: 1.0, "control_period_s": 1.0}}
        assert _run(base, ok)[1] == []
        assert _run(base, over)[1] == [(section, leaf, 1.0, 1.0)]

    def test_budget_follows_the_recorded_period(self):
        base = {"tick10k": {"max_tick_seconds": 0.1}}
        fresh = {"tick10k": {"max_tick_seconds": 0.3,
                             "control_period_s": 0.25}}
        assert _run(base, fresh)[1] == [
            ("tick10k", "max_tick_seconds", 0.25, 0.3)
        ]

    def test_missing_budget_leaf_fails(self):
        _, failures = _run(
            {"node_curve": {"sharded_shm_max_tick_seconds": 0.5}},
            {"node_curve": {"max_nodes": 8}},
        )
        assert failures == [
            ("node_curve", "sharded_shm_max_tick_seconds", 1.0, None)
        ]
