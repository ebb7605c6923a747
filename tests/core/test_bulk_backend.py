"""Bulk-array backend parity: ``sample_all``/``apply_caps`` versus the
list spellings ``read_vcpu_samples``/``write_caps``.

Twin identical hosts (same spec, seed, VM population, workloads) are
driven in lockstep; one backend is read through the list interface, the
other through the array interface.  The contract under test: identical
sample values every tick, identical caps on disk after every write
batch, and — under an armed FaultPlan of any kind — identical
perturbations, including crashes at the same tick, because the batch
entry hooks fire exactly once per batch regardless of spelling.
"""

import numpy as np
import pytest

from repro.core.backend import HostBackend, SampleBatch
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.snapshot import restore, snapshot
from repro.faults import ControllerCrash, FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import FAULT_KINDS
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import make_host

TMPL = VMTemplate("pair", vcpus=2, vfreq_mhz=1100.0)
ENF_US = 100_000


def _host(seed=11, plan=None):
    """One host with 3 two-vCPU VMs and a standalone backend."""
    node, hv, _ = make_host(seed=seed)
    backend = HostBackend(node.fs, node.procfs, node.sysfs)
    if plan is not None:
        backend = FaultInjector.wrap(backend, plan)
    for k in range(3):
        vm = hv.provision(TMPL, f"vm-{k}")
        attach(vm, ConstantWorkload(2, level=0.3 + 0.2 * k))
    return node, hv, backend


def _sig(samples):
    return sorted(tuple(sorted(s.__dict__.items())) for s in samples)


class TestSampleParity:
    def test_bulk_matches_list_over_ticks(self):
        node_a, _, back_a = _host()
        node_b, _, back_b = _host()
        for _ in range(8):
            node_a.step(1.0)
            node_b.step(1.0)
            list_samples = back_a.read_vcpu_samples(1.0)
            batch = back_b.sample_all(1.0)
            assert isinstance(batch, SampleBatch)
            assert _sig(list_samples) == _sig(batch.to_samples())

    def test_batch_arrays_consistent_with_samples(self):
        node, _, backend = _host()
        node.step(1.0)
        backend.sample_all(1.0)
        node.step(1.0)
        batch = backend.sample_all(1.0)
        samples = batch.to_samples()
        assert len(batch) == len(samples) == 6
        for i, s in enumerate(samples):
            assert s.cgroup_path == batch.paths[i]
            assert s.vm_name == batch.vm_names[i]
            assert s.vcpu_index == int(batch.vcpu_indices[i])
            assert s.tid == int(batch.tids[i])
            assert s.consumed_cycles == batch.consumed[i]
            assert s.core == int(batch.cores[i])
            assert s.core_freq_mhz == batch.core_freq_mhz[i]

    def test_subset_materialisation(self):
        node, _, backend = _host()
        node.step(1.0)
        batch = backend.sample_all(1.0)
        subset = batch.to_samples([0, 2])
        assert [s.cgroup_path for s in subset] == [
            batch.paths[0], batch.paths[2],
        ]

    def test_roundtrip_from_samples(self):
        node, _, backend = _host()
        node.step(1.0)
        samples = backend.read_vcpu_samples(1.0)
        batch = SampleBatch.from_samples(samples, 1.0)
        assert _sig(batch.to_samples()) == _sig(samples)


class TestApplyCapsParity:
    def _caps(self, backend):
        node_paths = [s.cgroup_path for s in backend.read_vcpu_samples(1.0)]
        return {p: 20_000 + 1_000 * i for i, p in enumerate(sorted(node_paths))}

    def test_full_write_matches(self):
        node_a, _, back_a = _host()
        node_b, _, back_b = _host()
        node_a.step(1.0)
        node_b.step(1.0)
        caps = self._caps(back_a)
        self._caps(back_b)  # advance B's sampling state identically
        written_a = back_a.write_caps(caps, ENF_US)
        paths = list(caps)
        quotas = np.array([caps[p] for p in paths], dtype=np.int64)
        written_b = back_b.apply_caps(paths, quotas, None, ENF_US)
        assert written_a == written_b
        assert back_a._last_cap == back_b._last_cap
        for path in paths:
            assert node_a.fs.read(f"{path}/cpu.max") == node_b.fs.read(
                f"{path}/cpu.max"
            )

    def test_dirty_mask_skips_clean_rows(self):
        node, _, backend = _host()
        node.step(1.0)
        caps = self._caps(backend)
        paths = list(caps)
        quotas = np.array([caps[p] for p in paths], dtype=np.int64)
        backend.apply_caps(paths, quotas, None, ENF_US)
        skipped_before = backend.stats.cap_writes_skipped
        # Change one row only; a dirty mask must write just that row.
        quotas2 = quotas.copy()
        quotas2[2] += 5_000
        dirty = quotas2 != quotas
        written = backend.apply_caps(paths, quotas2, dirty, ENF_US)
        assert written == {paths[2]: int(quotas2[2])}
        assert backend.stats.cap_writes_skipped == skipped_before + len(paths) - 1
        assert node.fs.read(f"{paths[2]}/cpu.max").split() == [
            str(quotas2[2]), str(ENF_US),
        ]
        # And the clean rows still hold their previous quota.
        assert node.fs.read(f"{paths[0]}/cpu.max").split() == [
            str(quotas[0]), str(ENF_US),
        ]

    def test_unbatched_writes_every_row(self):
        """``batched=False`` is the seed access pattern: unconditional
        writes, whatever the caller's dirty mask says."""
        node, _, backend = _host()
        backend.batched = False
        node.step(1.0)
        caps = self._caps(backend)
        paths = list(caps)
        quotas = np.array([caps[p] for p in paths], dtype=np.int64)
        backend.apply_caps(paths, quotas, None, ENF_US)
        writes_before = backend.stats.fs_writes
        clean = np.zeros(len(paths), dtype=bool)
        written = backend.apply_caps(paths, quotas, clean, ENF_US)
        assert written == {p: int(q) for p, q in zip(paths, quotas)}
        assert backend.stats.fs_writes == writes_before + len(paths)


def _plan(kind):
    return FaultPlan(
        [
            FaultSpec(
                kind=kind,
                target="*",
                start_tick=1,
                end_tick=3,
                probability=1.0,
                error="EIO",
                jitter_frac=0.05,
            )
        ],
        seed=5,
    )


class TestFaultParity:
    """Every fault kind perturbs both spellings identically."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_samples_identical_under_fault(self, kind):
        node_a, _, back_a = _host(plan=_plan(kind))
        node_b, _, back_b = _host(plan=_plan(kind))
        back_a.tolerate_errors = True
        back_b.tolerate_errors = True
        for tick in range(6):
            node_a.step(1.0)
            node_b.step(1.0)
            a, a_exc = self._try(lambda: back_a.read_vcpu_samples(1.0))
            b, b_exc = self._try(lambda: back_b.sample_all(1.0).to_samples())
            if a_exc is not None or b_exc is not None:
                assert type(a_exc) is type(b_exc), (kind, tick, a_exc, b_exc)
                assert str(a_exc) == str(b_exc)
            else:
                assert _sig(a) == _sig(b), (kind, tick)
            # The batch hook advanced both injectors' clocks in lockstep
            # even when sample_all fell back to the list scan internally.
            assert back_a.tick_index == back_b.tick_index
            assert back_a.injected == back_b.injected

    @pytest.mark.parametrize("kind", ("write_error", "crash"))
    def test_writes_identical_under_fault(self, kind):
        node_a, _, back_a = _host(plan=_plan(kind))
        node_b, _, back_b = _host(plan=_plan(kind))
        back_a.tolerate_errors = True
        back_b.tolerate_errors = True
        for tick in range(6):
            node_a.step(1.0)
            node_b.step(1.0)
            a_s, a_exc = self._try(lambda: back_a.read_vcpu_samples(1.0))
            b_s, b_exc = self._try(lambda: back_b.sample_all(1.0))
            assert type(a_exc) is type(b_exc)
            if a_exc is not None:
                continue  # crashed monitoring batch: nothing to write
            caps = {
                s.cgroup_path: 15_000 + 1_000 * tick + 500 * i
                for i, s in enumerate(sorted(a_s, key=lambda s: s.cgroup_path))
            }
            paths = list(caps)
            quotas = np.array([caps[p] for p in paths], dtype=np.int64)
            wa, wa_exc = self._try(lambda: back_a.write_caps(caps, ENF_US))
            wb, wb_exc = self._try(
                lambda: back_b.apply_caps(paths, quotas, None, ENF_US)
            )
            assert type(wa_exc) is type(wb_exc), (kind, tick)
            if wa_exc is not None:
                continue
            assert wa == wb
            assert back_a._last_cap == back_b._last_cap
            assert set(back_a.last_write_errors) == set(back_b.last_write_errors)

    def test_crash_raises_controller_crash_at_same_tick(self):
        node_a, _, back_a = _host(plan=_plan("crash"))
        node_b, _, back_b = _host(plan=_plan("crash"))
        crashed_a, crashed_b = [], []
        for tick in range(6):
            node_a.step(1.0)
            node_b.step(1.0)
            _, a_exc = self._try(lambda: back_a.read_vcpu_samples(1.0))
            _, b_exc = self._try(lambda: back_b.sample_all(1.0))
            if isinstance(a_exc, ControllerCrash):
                crashed_a.append(tick)
            if isinstance(b_exc, ControllerCrash):
                crashed_b.append(tick)
        assert crashed_a == crashed_b
        assert crashed_a  # the 1..3 window with p=1.0 must fire

    @staticmethod
    def _try(fn):
        try:
            return fn(), None
        except Exception as exc:  # noqa: BLE001 - parity needs every kind
            return None, exc


class TestSnapshotRestoreParity:
    def test_bulk_identical_after_restore(self):
        """A bulk-engine controller restored from a snapshot mid-run
        produces the same reports as an uninterrupted twin."""

        def build(seed=23):
            node, hv, _ = make_host(seed=seed)
            ctrl = VirtualFrequencyController(
                node.fs, node.procfs, node.sysfs,
                num_cpus=node.spec.logical_cpus,
                fmax_mhz=node.spec.fmax_mhz,
                config=ControllerConfig.paper_evaluation(engine="bulk"),
            )
            for k in range(3):
                vm = hv.provision(TMPL, f"vm-{k}")
                attach(vm, ConstantWorkload(2, level=0.3 + 0.2 * k))
                ctrl.register_vm(vm.name, TMPL.vfreq_mhz)
            return node, ctrl

        node_x, ctrl_x = build()
        node_y, ctrl_y = build()
        for tick in range(5):
            node_x.step(1.0)
            node_y.step(1.0)
            ctrl_x.tick(float(tick + 1))
            ctrl_y.tick(float(tick + 1))
        # Y's controller restarts: fresh instance, state from snapshot.
        state = snapshot(ctrl_y)
        ctrl_y2 = VirtualFrequencyController(
            node_y.fs, node_y.procfs, node_y.sysfs,
            num_cpus=node_y.spec.logical_cpus,
            fmax_mhz=node_y.spec.fmax_mhz,
            config=ControllerConfig.paper_evaluation(engine="bulk"),
        )
        restore(ctrl_y2, state)
        for tick in range(5, 10):
            node_x.step(1.0)
            node_y.step(1.0)
            rx = ctrl_x.tick(float(tick + 1))
            ry = ctrl_y2.tick(float(tick + 1))
            assert rx.allocations == ry.allocations, tick
            assert rx.wallets == ry.wallets
            assert _sig(rx.samples) == _sig(ry.samples)
            dx = {p: (d.estimate_cycles, d.trend, d.case)
                  for p, d in rx.decisions.items()}
            dy = {p: (d.estimate_cycles, d.trend, d.case)
                  for p, d in ry.decisions.items()}
            assert dx == dy
