"""The SLO plane's time-series store: rings, ladder, windows, ingest."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.backend import VCpuSample
from repro.core.config import ControllerConfig
from repro.core.controller import ControllerReport
from repro.core.estimator import Case, EstimatorDecision
from repro.obs.tsdb import (
    S_BACKEND_ERRORS,
    S_BACKEND_OPS,
    S_GUARANTEE_BAD,
    S_GUARANTEE_CHECKS,
    S_TICK_SECONDS,
    Series,
    SeriesStore,
)


class TestSeriesLadder:
    def test_raw_ring_wraps_at_capacity(self):
        s = Series("x", capacity=8)
        for v in range(20):
            s.append(float(v))
        values, per_point = s.tail(8)
        assert per_point == 1
        assert values.tolist() == [12.0, 13.0, 14.0, 15.0, 16.0, 17.0,
                                   18.0, 19.0]
        assert s.last == 19.0
        assert len(s) == 8

    def test_downsample_is_mean_over_fanout(self):
        s = Series("x", capacity=4, fanout=4)
        for v in range(32):
            s.append(float(v))
        # Raw ring covers only 4 ticks; a 16-tick window must come from
        # level 1, whose points are means over 4 consecutive raw ticks.
        values, per_point = s.tail(16)
        assert per_point == 4
        assert values.tolist() == [
            np.mean([16, 17, 18, 19]),
            np.mean([20, 21, 22, 23]),
            np.mean([24, 25, 26, 27]),
            np.mean([28, 29, 30, 31]),
        ]

    def test_level2_cascade(self):
        s = Series("x", capacity=4, fanout=2, depth=3)
        for v in range(16):
            s.append(float(v))
        # Level 2 points are means over fanout**2 = 4 raw ticks.
        values, per_point = s.tail(16)
        assert per_point == 4
        assert values.tolist() == [1.5, 5.5, 9.5, 13.5]

    def test_windowed_queries(self):
        s = Series("x", capacity=64)
        for v in range(10):
            s.append(float(v))
        assert s.avg(4) == pytest.approx(7.5)
        assert s.rate(10) == pytest.approx(1.0)      # +1 per tick
        assert s.increase(10) == pytest.approx(9.0)
        assert s.quantile(0.5, 10) == pytest.approx(4.5)
        assert s.quantile(1.0, 10) == pytest.approx(9.0)

    def test_empty_and_single_point_queries_are_zero(self):
        s = Series("x", capacity=8)
        assert s.avg(4) == 0.0
        assert s.rate(4) == 0.0
        assert s.quantile(0.9, 4) == 0.0
        assert s.last == 0.0
        s.append(5.0)
        assert s.rate(4) == 0.0  # one point: no measurable increase
        assert s.avg(4) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Series("x", capacity=1)
        with pytest.raises(ValueError):
            Series("x", fanout=1)
        with pytest.raises(ValueError):
            Series("x").tail(0)
        with pytest.raises(ValueError):
            Series("x").quantile(1.5, 4)

    def test_determinism_bit_identical(self):
        a = Series("x", capacity=16, fanout=4)
        b = Series("x", capacity=16, fanout=4)
        values = [0.1 * k * ((-1) ** k) for k in range(200)]
        for v in values:
            a.append(v)
            b.append(v)
        for window in (4, 16, 64, 200):
            va, _ = a.tail(window)
            vb, _ = b.tail(window)
            assert va.tolist() == vb.tolist()


class TestSeriesStore:
    def test_keying_by_name_and_labels(self):
        store = SeriesStore(capacity=16)
        store.append("m", 1.0, {"tenant": "a"})
        store.append("m", 2.0, {"tenant": "b"})
        store.append("m", 3.0, {"tenant": "a"})
        assert store.get("m", {"tenant": "a"}).last == 3.0
        assert store.get("m", {"tenant": "b"}).last == 2.0
        assert store.get("m", {"tenant": "zz"}) is None
        assert len(store.select("m")) == 2
        assert len(store) == 2

    def test_label_order_is_canonical(self):
        store = SeriesStore(capacity=16)
        store.append("m", 1.0, {"a": "1", "b": "2"})
        store.append("m", 2.0, {"b": "2", "a": "1"})
        assert len(store) == 1
        assert store.get("m", {"b": "2", "a": "1"}).last == 2.0

    def test_accumulate_builds_monotone_counter(self):
        store = SeriesStore(capacity=16)
        for delta in (1.0, 0.0, 2.5, 3.0):
            store.accumulate("c", delta)
        series = store.get("c")
        values, _ = series.tail(4)
        assert values.tolist() == [1.0, 1.0, 3.5, 6.5]
        assert store.increase("c", 4) == pytest.approx(5.5)

    def test_store_windowed_queries_tolerate_missing_series(self):
        store = SeriesStore()
        assert store.avg("nope", 8) == 0.0
        assert store.rate("nope", 8) == 0.0
        assert store.increase("nope", 8) == 0.0
        assert store.quantile("nope", 0.5, 8) == 0.0


class _FakeTimings:
    def __init__(self, total):
        self.total = total
        self.monitor = self.estimate = self.credits = total / 6.0
        self.auction = self.distribute = self.enforce = total / 6.0


def _sample(vm, path):
    return VCpuSample(vm, 0, path, tid=0, consumed_cycles=0.0, core=0,
                      core_freq_mhz=0.0, vfreq_mhz=0.0)


def _decision(estimate):
    return EstimatorDecision(estimate, 0.0, Case.STABLE)


def _report(samples, allocations, decisions):
    report = ControllerReport(
        t=1.0, samples=samples, allocations=allocations, decisions=decisions,
    )
    report.timings = _FakeTimings(0.01)
    return report


class _FakeController:
    def __init__(self, tenants, guarantees):
        self._vm_tenant = tenants
        self._guarantee = guarantees
        self._vm_vfreq = {}
        self.config = ControllerConfig()
        self.enforcer = SimpleNamespace(quota_us=lambda cycles: 0)
        self.machine_slice = "/machine.slice"


class TestIngestReport:
    def test_sla_criterion_matches_billing_meter(self):
        """bad = alloc < g and (estimate is None or estimate >= g)."""
        store = SeriesStore(capacity=32)
        ctrl = _FakeController(
            tenants={"vm-0": "a", "vm-1": "a", "vm-2": "b"},
            guarantees={"vm-0": 100.0, "vm-1": 100.0, "vm-2": 100.0},
        )
        report = _report(
            samples=[_sample("vm-0", "/cg0"), _sample("vm-1", "/cg1"),
                     _sample("vm-2", "/cg2")],
            allocations={"/cg0": 50.0, "/cg1": 120.0, "/cg2": 90.0},
            decisions={
                "/cg0": _decision(150.0),   # wanted >= g, got < g: bad
                "/cg1": _decision(150.0),   # got >= g: good
                "/cg2": _decision(80.0),    # demanded < g: not bad
            },
        )
        bad, total = store.ingest_report(ctrl, report, node="n0")
        assert (bad, total) == (1, 3)
        assert store.increase  # counters landed per tenant
        assert store.get(S_GUARANTEE_BAD, {"tenant": "a"}).last == 1.0
        assert store.get(S_GUARANTEE_CHECKS, {"tenant": "a"}).last == 2.0
        assert store.get(S_GUARANTEE_BAD, {"tenant": "b"}).last == 0.0
        assert store.get(S_TICK_SECONDS, {"node": "n0"}).last == \
            pytest.approx(0.01)

    def test_vm_without_allocation_or_guarantee_skipped(self):
        store = SeriesStore(capacity=32)
        ctrl = _FakeController(tenants={"vm-0": "a"}, guarantees={})
        report = _report(
            samples=[_sample("vm-0", "/cg0")],
            allocations={}, decisions={},
        )
        assert store.ingest_report(ctrl, report) == (0, 0)


class _FakeStats:
    def __init__(self, d):
        self._d = d

    def as_dict(self):
        return dict(self._d)


class TestIngestBackendStats:
    def test_error_and_ops_split(self):
        store = SeriesStore(capacity=8)
        store.ingest_backend_stats(_FakeStats({
            "fs_reads": 10, "fs_writes": 5,
            "read_errors": 2, "write_errors": 1,
        }), source="n0")
        assert store.get(S_BACKEND_ERRORS, {"source": "n0"}).last == 3.0
        assert store.get(S_BACKEND_OPS, {"source": "n0"}).last == 15.0


class TestIngestShardReader:
    def test_objectless_shm_ingest(self):
        from repro.sim.node_manager import NodeManager
        from repro.sim.shard_telemetry import (
            ShardTelemetryReader,
            ShardTelemetryWriter,
        )
        from tests.sim.test_sharded_node_manager import _build_group

        hosts = _build_group(["n0", "n1"], 3)
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        store = SeriesStore(capacity=16)
        try:
            for k in range(3):
                for node, _, _ in hosts.values():
                    node.step(1.0)
                manager.tick(float(k + 1))
                reader.update(*writer.publish(manager, float(k + 1)))
                store.ingest_shard_reader(
                    reader, shard="s0", deadline_s=1.0
                )
            # Per-node tick seconds came through the column cache, one
            # point per publish, matching the stage-column row sums.
            for node_id in ("n0", "n1"):
                series = store.get(S_TICK_SECONDS, {"node": node_id})
                assert series is not None and series.total == 3
                assert series.last > 0.0
            assert store.get(S_BACKEND_OPS, {"source": "s0"}).last > 0
            # The cache is keyed on the catalog: one group, reused.
            assert len(store._columns) == 1
            assert store.increase("tick_deadline_checks_total", 3) == \
                pytest.approx(4.0)  # 2 nodes x 2 increments visible
        finally:
            reader.close()
            writer.close(unlink=True)
            manager.close()


class TestIngestBilling:
    def test_per_tick_deltas_accumulate(self):
        class _Meter:
            tick_revenue = {1: 2.0, 2: 3.0}
            tick_credits = {2: 0.5}

        class _Engine:
            meter = _Meter()

        store = SeriesStore(capacity=8)
        store.ingest_billing(_Engine(), 1, node="n0")
        store.ingest_billing(_Engine(), 2, node="n0")
        store.ingest_billing(_Engine(), 3, node="n0")  # nothing metered
        assert store.get("revenue_usd_total", {"node": "n0"}).last == 5.0
        assert store.get("sla_credits_usd_total", {"node": "n0"}).last == 0.5


class TestIngestRebalance:
    def test_pressure_series(self):
        class _Plan:
            pressure_before_mhz = 123.5

        class _Loop:
            last_plan = _Plan()

        store = SeriesStore(capacity=8)
        store.ingest_rebalance(_Loop())
        assert store.get("rebalance_pressure_mhz").last == 123.5
        store.ingest_rebalance(type("L", (), {"last_plan": None})())
        assert store.get("rebalance_pressure_mhz").total == 1
