"""Scaling micro-benches: scheduler tick and controller iteration cost
as the vCPU population grows.

The paper's controller must stay a negligible fraction of its 1 s
period on dense hosts ("it must consume as little as possible CPU
time", §III-B2).  These benches pin the per-iteration cost at three
population sizes and assert sane growth (roughly linear in vCPUs —
the fair-share core is O(n log n)).
"""

import json
import os
import pathlib

import pytest

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from repro.sim.report import render_table

from conftest import emit, results_path


def build(num_vms, vcpus_per_vm, num_cpus):
    fs = CgroupFS(CgroupVersion.V2)
    fs.makedirs("/machine.slice")
    entities = []
    for i in range(num_vms):
        for j in range(vcpus_per_vm):
            path = f"/machine.slice/vm{i}/vcpu{j}"
            fs.makedirs(path)
            entities.append(
                SchedEntity(tid=1000 + 100 * i + j, cgroup_path=path, demand=1.0)
            )
    return CfsScheduler(fs, num_cpus), entities


@pytest.mark.parametrize("num_vms", [10, 40, 160])
def test_scheduler_tick_scaling(benchmark, num_vms):
    scheduler, entities = build(num_vms, 2, num_cpus=64)
    result = benchmark(scheduler.schedule, entities, 0.5)
    assert len(result) >= num_vms  # one allocation record per cgroup


def _dense_vms(num_vms, engine):
    """A 128-CPU host with ``num_vms`` 2-vCPU VMs at 500 MHz, unwarmed;
    returns ``(node, controller, vms)``."""
    from repro.core.config import ControllerConfig
    from repro.core.controller import VirtualFrequencyController
    from repro.hw.node import Node
    from repro.hw.nodespecs import NodeSpec
    from repro.virt.hypervisor import Hypervisor
    from repro.virt.template import VMTemplate

    spec = NodeSpec(
        name="dense",
        cpu_model="bench",
        sockets=2,
        cores_per_socket=32,
        threads_per_core=2,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=512 * 1024,
        freq_jitter_mhz=0.0,
    )
    node = Node(spec, seed=1)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine=engine),
    )
    ctrl.keep_reports = False
    template = VMTemplate("d", vcpus=2, vfreq_mhz=500.0)
    vms = []
    for k in range(num_vms):
        vm = hv.provision(template, f"d-{k}")
        ctrl.register_vm(vm.name, 500.0)
        vms.append(vm)
    return node, ctrl, vms


def _controller_host(num_vms, engine="bulk"):
    node, ctrl, vms = _dense_vms(num_vms, engine)
    for vm in vms:
        vm.set_uniform_demand(1.0)
    node.step(1.0)
    ctrl.tick(1.0)  # warm histories
    return node, ctrl


@pytest.mark.parametrize("num_vms", [16, 64, 128])
def test_controller_iteration_scaling(benchmark, num_vms):
    node, ctrl = _controller_host(num_vms)
    clock = {"t": 1.0}

    def one():
        node.step(1.0)
        clock["t"] += 1.0
        return ctrl.tick(clock["t"])

    report = benchmark(one)
    emit(
        render_table(
            ["vCPUs", "iteration cost"],
            [[num_vms * 2, f"{report.timings.total * 1e3:.2f} ms"]],
            title=f"controller iteration at {num_vms} VMs",
        )
    )
    # even the densest host stays a small fraction of the 1 s period
    assert report.timings.total < 0.25


# -- scalar vs bulk engine comparison (docs/performance.md) ----------------------

#: Reduced sizes under BENCH_SMOKE=1 (the bench-perf-smoke CI gate);
#: the full run is the committed BENCH_controller.json baseline.
PERF_SMOKE = bool(os.environ.get("BENCH_SMOKE"))
PERF_VMS = 24 if PERF_SMOKE else 160
PERF_TICKS = 8 if PERF_SMOKE else 25
#: Required bulk speedup of the stage 2-5 aggregate at full size (>=5x
#: at 160 VMs); smoke sizes are too small for the array path to shine,
#: there the regression check is the gate.
PERF_MIN_SPEEDUP = 1.0 if PERF_SMOKE else 5.0


def _stage25(timings):
    """Aggregate of the array stages (2 estimate .. 5 distribute).

    Stage 1 (monitoring) and 6 (enforcement) are kernel-surface bound;
    ``bench_bulk.py`` times them separately.
    """
    return timings.estimate + timings.credits + timings.auction + timings.distribute


def _measure_engine(engine):
    """Per-tick stage costs of one engine over PERF_TICKS closed loops.

    Measured at steady state: the host is warmed until every history
    window is full (history_len ticks), so the numbers are the recurring
    per-tick cost the paper's 1 s loop pays forever, not the one-off
    warmup transient.
    """
    node, ctrl = _controller_host(PERF_VMS, engine=engine)
    t = 1.0
    for _ in range(ctrl.config.history_len + 1):
        node.step(1.0)
        t += 1.0
        ctrl.tick(t)
    reports = []
    for _ in range(PERF_TICKS):
        node.step(1.0)
        t += 1.0
        reports.append(ctrl.tick(t))
    n = len(reports)
    return {
        "stage2_5_seconds_per_tick": sum(_stage25(r.timings) for r in reports) / n,
        "total_seconds_per_tick": sum(r.timings.total for r in reports) / n,
    }, reports


def test_engine_speedup_and_baseline(benchmark):
    """Bulk vs scalar stage 2-5 cost; records BENCH_controller.json.

    Also cross-checks the two report streams for exact equality — the
    speedup must not come from computing something else.
    """

    def compare():
        scalar, scalar_reports = _measure_engine("scalar")
        bulk, bulk_reports = _measure_engine("bulk")
        return scalar, bulk, scalar_reports, bulk_reports

    scalar, bulk, scalar_reports, bulk_reports = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )

    for i, (a, b) in enumerate(zip(scalar_reports, bulk_reports)):
        assert a.allocations == b.allocations, f"tick {i}: allocations differ"
        assert a.wallets == b.wallets, f"tick {i}: wallets differ"
        assert a.market_initial == b.market_initial, f"tick {i}"
        assert a.freely_distributed == b.freely_distributed, f"tick {i}"

    speedup = (
        scalar["stage2_5_seconds_per_tick"] / bulk["stage2_5_seconds_per_tick"]
        if bulk["stage2_5_seconds_per_tick"] > 0
        else float("inf")
    )
    section = {
        "num_vms": PERF_VMS,
        "ticks": PERF_TICKS,
        "scalar": scalar,
        "bulk": bulk,
        "speedup_stage2_5": speedup,
    }
    out_path = results_path("BENCH_controller.json")
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing["smoke" if PERF_SMOKE else "full"] = section
    out_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")

    emit(
        render_table(
            ["engine", "stage 2-5 / tick", "total / tick"],
            [
                ["scalar", f"{scalar['stage2_5_seconds_per_tick'] * 1e3:.3f} ms",
                 f"{scalar['total_seconds_per_tick'] * 1e3:.3f} ms"],
                ["bulk", f"{bulk['stage2_5_seconds_per_tick'] * 1e3:.3f} ms",
                 f"{bulk['total_seconds_per_tick'] * 1e3:.3f} ms"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title=f"engine comparison at {PERF_VMS} VMs ({PERF_VMS * 2} vCPUs)",
        )
    )
    assert speedup >= PERF_MIN_SPEEDUP, (
        f"stage 2-5 speedup {speedup:.2f}x below the "
        f"{PERF_MIN_SPEEDUP}x target at {PERF_VMS} VMs"
    )
