"""Tests for controller snapshot/restore and dynamic QoS changes."""

import json

import pytest

from repro.core.snapshot import from_json, restore, snapshot, to_json
from repro.core.units import guaranteed_cycles
from repro.sim.engine import Simulation
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload, IdleWorkload
from tests.conftest import make_host

T = VMTemplate("snap", vcpus=1, vfreq_mhz=1200.0)


def warmed_host():
    node, hv, ctrl = make_host()
    busy = hv.provision(T, "busy")
    frugal = hv.provision(T, "frugal")
    ctrl.register_vm("busy", T.vfreq_mhz)
    ctrl.register_vm("frugal", T.vfreq_mhz)
    attach(busy, ConstantWorkload(1))
    attach(frugal, IdleWorkload(1))
    sim = Simulation(node, hv, controller=ctrl, dt=0.5)
    sim.run(15.0)
    return node, hv, ctrl, sim


class TestSnapshot:
    def test_roundtrip_preserves_wallets_and_caps(self):
        node, hv, ctrl, sim = warmed_host()
        state = snapshot(ctrl)
        assert state["wallets"]["frugal"] > 0
        assert state["vm_vfreq"] == {"busy": 1200.0, "frugal": 1200.0}

        from repro.core.controller import VirtualFrequencyController

        fresh = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
        )
        restore(fresh, state)
        assert fresh.ledger.balance("frugal") == ctrl.ledger.balance("frugal")
        assert fresh._current_cap == ctrl._current_cap
        for path in state["histories"]:
            assert fresh.histories()[path] == ctrl.histories()[path]

    def test_json_roundtrip(self):
        node, hv, ctrl, sim = warmed_host()
        payload = to_json(ctrl)

        from repro.core.controller import VirtualFrequencyController

        fresh = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
        )
        from_json(fresh, payload)
        assert to_json(fresh) == payload

    def test_restored_controller_continues_seamlessly(self):
        """After restore, the very next iteration must not re-observe the
        whole cumulative usage as one giant consumption spike."""
        node, hv, ctrl, sim = warmed_host()
        state = snapshot(ctrl)

        from repro.core.controller import VirtualFrequencyController

        fresh = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
        )
        restore(fresh, state)
        sim.controller = fresh
        sim.run(2.0)
        last = fresh.reports[-1]
        for sample in last.samples:
            assert sample.consumed_cycles <= 1.1e6  # one period's worth

    def test_bad_version_rejected(self):
        node, hv, ctrl, _ = warmed_host()
        with pytest.raises(ValueError):
            restore(ctrl, {"version": 99})

    def test_negative_wallet_rejected(self):
        node, hv, ctrl, _ = warmed_host()
        state = snapshot(ctrl)
        state["wallets"]["frugal"] = -1.0
        from repro.core.controller import VirtualFrequencyController

        fresh = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
        )
        with pytest.raises(ValueError):
            restore(fresh, state)

    def test_restore_onto_nonfresh_controller_is_safe(self):
        """Restoring onto a controller that has already run must not
        double-register VMs or replay histories on top of live ones."""
        node, hv, ctrl, sim = warmed_host()
        state = snapshot(ctrl)
        sim.run(5.0)  # controller keeps running past the snapshot
        restore(ctrl, state)
        assert ctrl.ledger.wallets() == state["wallets"]
        assert ctrl._vm_vfreq == state["vm_vfreq"]
        assert ctrl._current_cap == {
            p: float(c) for p, c in state["current_caps"].items()
        }
        for path, history in state["histories"].items():
            assert ctrl.histories()[path] == [float(v) for v in history]
        # and the loop keeps working
        sim.run(2.0)
        assert ctrl.reports[-1].samples

    def test_failed_validation_leaves_target_untouched(self):
        """A corrupt snapshot must be rejected *before* any state moves
        (the old restore mutated first and raised halfway through)."""
        node, hv, ctrl, _ = warmed_host()
        state = snapshot(ctrl)
        state["wallets"]["frugal"] = -5.0
        wallets_before = ctrl.ledger.wallets()
        caps_before = dict(ctrl._current_cap)
        with pytest.raises(ValueError):
            restore(ctrl, state)
        assert ctrl.ledger.wallets() == wallets_before
        assert ctrl._current_cap == caps_before

    def test_missing_field_rejected(self):
        node, hv, ctrl, _ = warmed_host()
        state = snapshot(ctrl)
        del state["wallets"]
        with pytest.raises(ValueError, match="missing field"):
            restore(ctrl, state)

    def test_excessive_vfreq_rejected(self):
        node, hv, ctrl, _ = warmed_host()
        state = snapshot(ctrl)
        state["vm_vfreq"]["busy"] = 99_999.0
        with pytest.raises(ValueError, match="exceeds"):
            restore(ctrl, state)

    def test_restore_respects_credit_cap(self):
        """Wallet loads go through the public setter, which enforces the
        same invariants as organic accrual (no reaching into _wallets)."""
        from repro.core.config import ControllerConfig
        from repro.core.controller import VirtualFrequencyController

        node, hv, ctrl, _ = warmed_host()
        state = snapshot(ctrl)
        state["wallets"]["frugal"] = 1e12
        capped = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
            config=ControllerConfig.paper_evaluation(credit_cap=1e6),
        )
        restore(capped, state)
        assert capped.ledger.balance("frugal") == 1e6


class TestPeriodicSnapshot:
    def test_controller_snapshots_every_k_ticks_and_restores(self, tmp_path):
        """--snapshot-path behaviour: periodic persistence plus
        auto-restore on construction."""
        from repro.core.config import ControllerConfig
        from repro.core.controller import VirtualFrequencyController

        snap = str(tmp_path / "ctrl.json")
        cfg = ControllerConfig.paper_evaluation(
            snapshot_path=snap, snapshot_every_ticks=3
        )
        node, hv, ctrl = make_host(config=cfg)
        vm = hv.provision(T, "persist")
        ctrl.register_vm("persist", T.vfreq_mhz)
        vm.set_uniform_demand(0.7)
        for k in range(7):
            node.step(1.0)
            ctrl.tick(float(k + 1))
        import os

        assert os.path.exists(snap)
        reborn = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
            config=cfg,
        )
        # auto-restored from the tick-6 snapshot
        assert reborn._vm_vfreq == {"persist": T.vfreq_mhz}
        assert reborn.ledger.wallets() == ctrl.reports[5].wallets

    def test_write_failing_partway_keeps_the_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write (half the JSON on disk, then ENOSPC) must
        leave the last good snapshot in place for the restart."""
        import builtins
        import errno

        from repro.core.config import ControllerConfig
        from repro.core.controller import VirtualFrequencyController

        snap = str(tmp_path / "ctrl.json")
        cfg = ControllerConfig.paper_evaluation(
            snapshot_path=snap, snapshot_every_ticks=3
        )
        node, hv, ctrl = make_host(config=cfg)
        vm = hv.provision(T, "persist")
        ctrl.register_vm("persist", T.vfreq_mhz)
        vm.set_uniform_demand(0.3)
        for k in range(3):
            node.step(1.0)
            ctrl.tick(float(k + 1))
        with open(snap) as fh:
            good = fh.read()

        real_open = builtins.open

        class TornFile:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def write(self, data):
                self._fh.write(data[: len(data) // 2])
                self._fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and str(file).startswith(snap):
                return TornFile(fh)
            return fh

        monkeypatch.setattr(builtins, "open", torn_open)
        for k in range(3, 6):
            node.step(1.0)
            if k == 5:  # tick 6 snapshots
                with pytest.raises(OSError):
                    ctrl.tick(float(k + 1))
            else:
                ctrl.tick(float(k + 1))
        monkeypatch.setattr(builtins, "open", real_open)

        with open(snap) as fh:
            assert fh.read() == good
        reborn = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus, fmax_mhz=node.spec.fmax_mhz,
            config=cfg,
        )
        assert reborn.ledger.wallets() == ctrl.reports[2].wallets
        assert snapshot(reborn) == json.loads(good)


class TestDynamicQoS:
    def test_set_vfreq_changes_guarantee_next_iteration(self):
        node, hv, ctrl, sim = warmed_host()
        before = ctrl.guaranteed_cycles_of("busy")
        ctrl.set_vfreq("busy", 2400.0)
        after = ctrl.guaranteed_cycles_of("busy")
        assert after == pytest.approx(guaranteed_cycles(1.0, 2400.0, 2400.0))
        assert after > before

    def test_set_vfreq_unknown_vm(self):
        _, _, ctrl, _ = warmed_host()
        with pytest.raises(KeyError):
            ctrl.set_vfreq("ghost", 1000.0)

    def test_downgrade_takes_effect_under_contention(self):
        """Renegotiating a busy VM down must actually slow it when the
        node is contended."""
        node, hv, ctrl = make_host()
        # 6 single-vCPU VMs on 4 logical CPUs: genuine contention
        # (committed 6 x 1500 = 9 000 <= 9 600 MHz capacity).
        for k in range(6):
            vm = hv.provision(VMTemplate(f"q{k}", vcpus=1, vfreq_mhz=1500.0), f"q-{k}")
            ctrl.register_vm(vm.name, 1500.0)
            attach(vm, ConstantWorkload(1))
        sim = Simulation(node, hv, controller=ctrl, dt=0.5)
        sim.run(20.0)
        high = ctrl.reports[-1].allocations["/machine.slice/q-0/vcpu0"]
        ctrl.set_vfreq("q-0", 600.0)
        sim.run(20.0)
        low = ctrl.reports[-1].allocations["/machine.slice/q-0/vcpu0"]
        assert low < high * 0.75

    def test_enforcer_skips_vanished_cgroup(self):
        node, hv, ctrl, sim = warmed_host()
        from repro.core.enforcer import Enforcer

        enforcer = Enforcer(node.fs, ctrl.config)
        written = enforcer.apply(
            {"/machine.slice/busy/vcpu0": 5e5, "/machine.slice/ghost/vcpu0": 5e5}
        )
        assert "/machine.slice/busy/vcpu0" in written
        assert "/machine.slice/ghost/vcpu0" not in written
