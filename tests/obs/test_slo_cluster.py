"""The SLO plane's in-process dialect: ``SLOPlane.observe_cluster`` on a
real :class:`NodeManager` with tenanted VMs and billing attached.

Every host sees the same short burst of ``cpu.stat`` read errors
mid-run, so the deterministic anomaly lane has a real alert to fire and
resolve.
"""

import json
import random

from repro.billing import BillingEngine
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.resilience import ResiliencePolicy
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw.node import Node
from repro.obs.slo import SLOConfig, SLOPlane
from repro.obs.tsdb import (
    S_CREDITS_USD,
    S_DEADLINE_CHECKS,
    S_GUARANTEE_BAD,
    S_GUARANTEE_CHECKS,
    S_REVENUE_USD,
    S_TICK_SECONDS,
    SeriesStore,
)
from repro.sim.node_manager import NodeManager
from repro.virt.hypervisor import Hypervisor, VMTemplate
from tests.conftest import TINY

TEMPLATE = VMTemplate("demo", vcpus=2, vfreq_mhz=1200.0)
NODES = ("node-0", "node-1", "node-2")
#: Ticks [20, 24) fail every ``cpu.stat`` read on every host.
READ_ERROR_BURST = FaultPlan(
    [FaultSpec("read_error", "*/cpu.stat", start_tick=20, end_tick=24)]
)


def _cluster(seed=11, vms_per_node=3, tenants=2):
    """Three hosts, VMs spread over ``tenants`` tenants, billing on."""
    manager = NodeManager()
    hosts = {}
    k = 0
    for n, node_id in enumerate(NODES):
        node = Node(TINY, seed=seed + n)
        hv = Hypervisor(node)
        ctrl = VirtualFrequencyController(
            FaultInjector(READ_ERROR_BURST, node.fs, node.procfs, node.sysfs),
            num_cpus=TINY.logical_cpus, fmax_mhz=TINY.fmax_mhz,
            config=ControllerConfig.paper_evaluation(
                resilience=ResiliencePolicy(stale_sample_max_age=1)
            ),
        )
        BillingEngine.attach(ctrl, node_id=node_id)
        vms = []
        for _ in range(vms_per_node):
            vm = hv.provision(TEMPLATE, f"vm-{k}")
            ctrl.register_vm(
                vm.name, TEMPLATE.vfreq_mhz, tenant=f"t{k % tenants}"
            )
            vms.append(vm)
            k += 1
        manager.add_node(node_id, ctrl)
        hosts[node_id] = (node, vms)
    return manager, hosts


def _drive(manager, hosts, plane, ticks, *, seed=11, on_tick=None):
    """Tick the cluster and hand each barrier to the plane (0-based
    tick numbers, as the controllers' own hooks use)."""
    rng = random.Random(seed)
    for tick in range(ticks):
        for node_id in sorted(hosts):
            node, vms = hosts[node_id]
            for vm in vms:
                vm.set_uniform_demand(0.6 + 0.4 * rng.random())
            node.step(1.0)
        manager.tick(float(tick + 1))
        plane.observe_cluster(manager, tick, t=float(tick + 1))
        if on_tick is not None:
            on_tick(tick)


class TestObserveCluster:
    def test_one_tick_seconds_point_per_node_per_tick(self):
        """Each node's tick_seconds series grows by exactly one point a
        tick, so an N-tick window really spans N ticks."""
        manager, hosts = _cluster()
        plane = SLOPlane()
        _drive(manager, hosts, plane, ticks=5)
        for node_id in NODES:
            series = plane.store.get(S_TICK_SECONDS, {"node": node_id})
            assert len(series) == 5
            assert series.total == 5

    def test_guarantee_counters_sum_the_per_node_reports(self):
        manager, hosts = _cluster()
        plane = SLOPlane()
        reference = SeriesStore()

        def check(tick):
            for node_id in sorted(manager.last_reports):
                reference.ingest_report(
                    manager.controllers[node_id],
                    manager.last_reports[node_id],
                    node=node_id,
                )
            for tenant in ("t0", "t1"):
                labels = {"tenant": tenant}
                for name in (S_GUARANTEE_BAD, S_GUARANTEE_CHECKS):
                    assert plane.store.get(name, labels).last == \
                        reference.get(name, labels).last

        _drive(manager, hosts, plane, ticks=8, on_tick=check)
        assert plane.store.get(S_GUARANTEE_CHECKS, {"tenant": "t0"}).last > 0

    def test_deadline_checks_grow_by_node_count_each_tick(self):
        manager, hosts = _cluster()
        plane = SLOPlane()

        def check(tick):
            total = plane.store.get(S_DEADLINE_CHECKS).last
            assert total == len(NODES) * (tick + 1)

        _drive(manager, hosts, plane, ticks=6, on_tick=check)

    def test_revenue_and_credits_match_each_meter(self):
        manager, hosts = _cluster()
        plane = SLOPlane()
        _drive(manager, hosts, plane, ticks=8)
        for node_id, ctrl in manager.controllers.items():
            meter = ctrl.billing.meter
            labels = {"node": node_id}
            assert plane.store.get(S_REVENUE_USD, labels).last == \
                sum(meter.tick_revenue.values()) > 0.0
            assert plane.store.get(S_CREDITS_USD, labels).last == \
                sum(meter.tick_credits.values())

    def test_deterministic_alert_ledger_is_byte_identical(self, tmp_path):
        def ledger(run):
            manager, hosts = _cluster()
            out_dir = tmp_path / run
            plane = SLOPlane(SLOConfig(wallclock=False, out_dir=str(out_dir)))
            _drive(manager, hosts, plane, ticks=40)
            plane.close()
            return (out_dir / "alerts.jsonl").read_bytes()

        first = ledger("a")
        states = [json.loads(line)["state"] for line in first.splitlines()]
        assert states == ["firing", "resolved"]  # the read-error burst
        assert ledger("b") == first
