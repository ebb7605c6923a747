"""Fault resilience — degraded-mode guarantees under an injected fault mix.

Three nodes run under one :class:`~repro.sim.node_manager.NodeManager`:

* **node-chaos** — the standard fault mix (probabilistic EIO/EBUSY,
  clock jitter, thread churn) *plus* one injected controller crash at
  the monitoring boundary; recovered via snapshot restore +
  ``replace_node``.
* **node-faulty** — a scheduled occlusion: one vCPU's ``cpu.stat``
  returns EIO for a fixed window, long enough to force degraded mode.
* **node-clean** — no faults; the control group.

Claims, all asserted:

* the control plane never dies: every healthy node reports on every
  tick, and the crashed controller loses exactly its crash tick;
* an unobservable vCPU falls back to its Eq. 2 guarantee ``C_i`` while
  degraded, and the unprotected gap (ticks with neither a live
  allocation nor a fallback) is bounded by the policy's
  ``degraded_after_ticks``;
* fault and resilience counters surface in the Prometheus export.

``BENCH_SMOKE=1`` shrinks the run for CI.
"""

import os

from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.metrics_export import render_controller, render_node_manager
from repro.core.resilience import ResiliencePolicy
from repro.core.snapshot import from_json, to_json
from repro.core.units import guaranteed_cycles
from repro.faults import ControllerCrash, FaultInjector, FaultPlan, FaultSpec
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.sim.node_manager import NodeManager
from repro.sim.report import render_table
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate

from conftest import emit

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

SPEC = NodeSpec(
    name="bench-tiny",
    cpu_model="bench 4-thread CPU",
    sockets=1,
    cores_per_socket=2,
    threads_per_core=2,
    fmax_mhz=2400.0,
    fmin_mhz=1200.0,
    memory_mb=16 * 1024,
    freq_jitter_mhz=0.0,
)
TEMPLATE = VMTemplate("rb", vcpus=1, vfreq_mhz=1200.0)
VMS_PER_NODE = 3
TICKS = 12 if SMOKE else 40
CRASH_TICK = 5
OCCLUDE = (4, 9)  # [start, end) ticks of the scheduled occlusion
OCCLUDED_PATH = "/machine.slice/faulty-0/vcpu0"
POLICY = ResiliencePolicy(
    write_retries=2, stale_sample_max_age=1, degraded_after_ticks=2
)


def _plans():
    chaos = FaultPlan.standard_mix(seed=9, crash_tick=CRASH_TICK)
    faulty = FaultPlan(
        [
            FaultSpec(
                "read_error",
                f"*{OCCLUDED_PATH}/cpu.stat",
                start_tick=OCCLUDE[0],
                end_tick=OCCLUDE[1],
                error="EIO",
            ),
            FaultSpec("write_error", "*/cpu.max", probability=0.05, error="EBUSY"),
        ],
        seed=17,
    )
    return {"node-chaos": chaos, "node-faulty": faulty, "node-clean": None}


def _build_node(node_id, plan, vm_prefix):
    node = Node(SPEC, seed=31)
    hv = Hypervisor(node)
    if plan is None:
        backend_args = (node.fs, node.procfs, node.sysfs)
        ctrl = VirtualFrequencyController(
            *backend_args,
            num_cpus=SPEC.logical_cpus,
            fmax_mhz=SPEC.fmax_mhz,
            config=ControllerConfig.paper_evaluation(),
            resilience=POLICY,
        )
        injector = None
    else:
        injector = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
        ctrl = VirtualFrequencyController(
            injector,
            num_cpus=SPEC.logical_cpus,
            fmax_mhz=SPEC.fmax_mhz,
            config=ControllerConfig.paper_evaluation(),
            resilience=POLICY,
        )
    for k in range(VMS_PER_NODE):
        vm = hv.provision(TEMPLATE, f"{vm_prefix}-{k}")
        ctrl.register_vm(vm.name, TEMPLATE.vfreq_mhz)
        vm.set_uniform_demand(0.8)
    return node, hv, injector, ctrl


def _run_cluster():
    plans = _plans()
    hosts = {
        node_id: _build_node(node_id, plan, node_id.split("-", 1)[1])
        for node_id, plan in plans.items()
    }
    manager = NodeManager(
        {nid: h[3] for nid, h in hosts.items()}
    )
    snapshots = {}
    reports_by_node = {nid: [] for nid in hosts}
    crashes = recoveries = 0
    for k in range(TICKS):
        for node, _, _, _ in hosts.values():
            node.step(1.0)
        result = manager.tick(float(k + 1))
        for nid, report in result.items():
            reports_by_node[nid].append(report)
            snapshots[nid] = to_json(manager.controllers[nid])
        for nid, exc in result.errors.items():
            assert isinstance(exc, ControllerCrash), exc
            crashes += 1
            # Crash recovery: a fresh controller over the SAME kernel
            # surfaces (the injector persists, like a real host), state
            # restored from the last good snapshot.
            node, hv, injector, _ = hosts[nid]
            reborn = VirtualFrequencyController(
                injector,
                num_cpus=SPEC.logical_cpus,
                fmax_mhz=SPEC.fmax_mhz,
                config=ControllerConfig.paper_evaluation(),
                resilience=POLICY,
            )
            from_json(reborn, snapshots[nid])
            manager.replace_node(nid, reborn)
            hosts[nid] = (node, hv, injector, reborn)
            recoveries += 1
    manager.close()
    return hosts, manager, reports_by_node, crashes, recoveries


def test_controller_survives_the_fault_mix(once):
    hosts, manager, reports_by_node, crashes, recoveries = once(_run_cluster)

    # -- liveness: nobody dies, healthy nodes never miss a beat -------------
    assert crashes == 1 and recoveries == 1
    assert len(reports_by_node["node-clean"]) == TICKS
    assert len(reports_by_node["node-faulty"]) == TICKS
    assert len(reports_by_node["node-chaos"]) == TICKS - 1  # the crash tick
    for report in reports_by_node["node-clean"]:
        assert len(report.samples) == VMS_PER_NODE

    # -- degraded mode: occluded vCPU held at its Eq. 2 guarantee -----------
    c_i = guaranteed_cycles(1.0, TEMPLATE.vfreq_mhz, SPEC.fmax_mhz)
    faulty_ctrl = manager.controllers["node-faulty"]
    degraded_ticks = [
        r for r in reports_by_node["node-faulty"] if OCCLUDED_PATH in r.degraded
    ]
    assert degraded_ticks, "the occlusion never forced degraded mode"
    for r in degraded_ticks:
        assert abs(r.degraded[OCCLUDED_PATH] - c_i) < 1.0
        assert abs(r.allocations[OCCLUDED_PATH] - c_i) < 1.0
    stats = faulty_ctrl.resilience_stats
    assert stats.degraded_transitions >= 1
    assert stats.recoveries >= 1
    assert faulty_ctrl.degraded_vcpus == 0  # recovered by the end

    # -- bounded guarantee-violation time ------------------------------------
    unprotected = sum(
        1
        for r in reports_by_node["node-faulty"]
        if OCCLUDED_PATH not in r.allocations
    )
    assert unprotected <= POLICY.degraded_after_ticks

    # -- observability --------------------------------------------------------
    text = render_controller(faulty_ctrl)
    assert "vfreq_faults_injected_total" in text
    assert "vfreq_degraded_vcpus" in text
    assert "vfreq_resilience_events_total" in text
    cluster_text = render_node_manager(manager)
    assert 'vfreq_node_tick_errors_total{node="node-chaos"} 1' in cluster_text

    # -- the artefact table ----------------------------------------------------
    rows = []
    for nid in ("node-chaos", "node-faulty", "node-clean"):
        _, _, injector, ctrl = hosts[nid]
        st = ctrl.resilience_stats
        rows.append([
            nid,
            len(reports_by_node[nid]),
            manager.error_counts.get(nid, 0),
            sum(injector.injected.values()) if injector else 0,
            st.stale_samples_used,
            st.degraded_transitions,
            st.recoveries,
            st.write_retries,
            st.write_failures,
        ])
    emit(render_table(
        ["node", "reports", "tick errors", "faults fired", "stale used",
         "degraded", "recovered", "write retries", "write failures"],
        rows,
        title=(
            f"fault resilience, {TICKS} ticks, {VMS_PER_NODE} VMs/node, "
            f"crash@{CRASH_TICK}, occlusion ticks {OCCLUDE[0]}-{OCCLUDE[1] - 1}"
        ),
    ))
