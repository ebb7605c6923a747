"""Tests for the structure-of-arrays vCPU table (repro.core.soa)."""

import numpy as np
import pytest

from repro.core.config import ControllerConfig
from repro.core.estimator import Case, TrendEstimator
from repro.core.soa import TickView, VcpuTable, decide_batch, seqsum


def table(history_len=5, capacity=4):
    return VcpuTable(history_len, capacity=capacity)


class FakeSample:
    def __init__(self, path, vm, consumed):
        self.cgroup_path = path
        self.vm_name = vm
        self.consumed_cycles = consumed


class TestSlots:
    def test_slots_are_stable_across_ticks(self):
        t = table()
        a = t.ensure_slot("/m/a/vcpu0", "a", 100.0)
        b = t.ensure_slot("/m/b/vcpu0", "b", 200.0)
        assert t.ensure_slot("/m/a/vcpu0", "a", 999.0) == a
        assert t.slot_of("/m/b/vcpu0") == b
        assert len(t) == 2

    def test_growth_preserves_state(self):
        t = table(capacity=2)
        t.ensure_slot("/p0", "a", 1.0)
        t.ensure_slot("/p1", "a", 1.0)
        t.observe(np.array([0, 1], dtype=np.intp), np.array([5.0, 6.0]))
        t.ensure_slot("/p2", "b", 2.0)  # forces a grow
        assert t.capacity >= 3
        assert t.history_of("/p0") == [5.0]
        assert t.history_of("/p1") == [6.0]
        assert t.guarantee[t.slot_of("/p2")] == 2.0

    def test_release_recycles_slot(self):
        t = table()
        s = t.ensure_slot("/p0", "a", 1.0)
        t.observe(np.array([s], dtype=np.intp), np.array([5.0]))
        t.release_path("/p0")
        assert t.slot_of("/p0") is None
        s2 = t.ensure_slot("/p1", "b", 2.0)
        assert s2 == s  # recycled
        assert t.history_of("/p1") == []  # history was wiped

    def test_release_vm_frees_all_paths_and_id(self):
        t = table()
        t.ensure_slot("/a/v0", "a", 1.0)
        t.ensure_slot("/a/v1", "a", 1.0)
        t.ensure_slot("/b/v0", "b", 2.0)
        n_ids = t.num_vm_ids
        t.release_vm("a")
        assert t.slot_of("/a/v0") is None
        assert t.slot_of("/a/v1") is None
        assert t.slot_of("/b/v0") is not None
        # the dense id is recycled by the next new VM
        t.ensure_slot("/c/v0", "c", 3.0)
        assert t.num_vm_ids == n_ids

    def test_set_vm_guarantee_refreshes_live_slots(self):
        t = table()
        s0 = t.ensure_slot("/a/v0", "a", 1.0)
        s1 = t.ensure_slot("/a/v1", "a", 1.0)
        t.set_vm_guarantee("a", 42.0)
        assert t.guarantee[s0] == 42.0
        assert t.guarantee[s1] == 42.0


class TestHistories:
    def test_window_keeps_last_n(self):
        t = table(history_len=3)
        s = t.ensure_slot("/p", "a", 1.0)
        rows = np.array([s], dtype=np.intp)
        for v in (1.0, 2.0, 3.0, 4.0):
            t.observe(rows, np.array([v]))
        assert t.history_of("/p") == [2.0, 3.0, 4.0]
        assert t.histories() == {"/p": [2.0, 3.0, 4.0]}

    def test_load_history_truncates_to_window(self):
        t = table(history_len=3)
        t.ensure_slot("/p", "a", 1.0)
        t.load_history("/p", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert t.history_of("/p") == [3.0, 4.0, 5.0]

    def test_seqsum_matches_python_sum_bitwise(self):
        vals = np.array([0.1, 0.2, 0.3, 1e16, -1e16, 0.4])
        assert seqsum(vals) == sum(vals.tolist())
        assert seqsum(np.empty(0)) == 0.0


class TestDecideBatch:
    def test_matches_scalar_estimator_bitwise(self):
        cfg = ControllerConfig.paper_evaluation()
        est = TrendEstimator(cfg)
        t = table(history_len=cfg.history_len)
        rng = np.random.default_rng(1234)
        paths = [f"/m/vm{i}/vcpu0" for i in range(12)]
        caps = {}
        for path in paths:
            t.ensure_slot(path, path.split("/")[2], 1.0)
        for _ in range(30):
            consumed = rng.uniform(0.0, 1.2e6, size=len(paths))
            rows = np.array([t.slot_of(p) for p in paths], dtype=np.intp)
            vms = [p.split("/")[2] for p in paths]
            view = TickView(
                rows=rows,
                consumed=consumed,
                paths=list(paths),
                vms=vms,
                vm_order=[(v, i) for i, v in enumerate(dict.fromkeys(vms))],
            )
            # scalar: observe then decide, exactly like the controller
            for i, path in enumerate(paths):
                est.observe(path, float(consumed[i]))
            t.observe(rows, consumed)
            estimates, trends, cases = decide_batch(t, view, cfg)
            from repro.core.soa import _CASE_OF_CODE

            for i, path in enumerate(paths):
                d = est.decide(path, caps.get(path, 1e6))
                assert estimates[i] == d.estimate_cycles, path
                assert trends[i] == d.trend, path
                assert _CASE_OF_CODE[int(cases[i])] is d.case, path
                caps[path] = d.estimate_cycles
                t.set_cap_path(path, d.estimate_cycles)

    def test_warmup_case_flagged(self):
        cfg = ControllerConfig.paper_evaluation()
        t = table(history_len=cfg.history_len)
        s = t.ensure_slot("/p", "a", 1.0)
        rows = np.array([s], dtype=np.intp)
        consumed = np.array([5e5])
        t.observe(rows, consumed)
        view = TickView(rows=rows, consumed=consumed, paths=["/p"],
                        vms=["a"], vm_order=[("a", 0)])
        _, _, cases = decide_batch(t, view, cfg)
        from repro.core.soa import _CASE_OF_CODE

        assert _CASE_OF_CODE[int(cases[0])] is Case.WARMUP
