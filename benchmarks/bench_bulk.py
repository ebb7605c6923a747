"""Bulk-engine and sharded-control-plane benches.

Four measurements back the bulk-array backend API (docs/api.md):

1. full-tick cost of both engines at the paper's dense-host size —
   the ``bulk`` engine must beat the scalar reference on the *whole*
   tick (stages 1 and 6 included), not just the array middle;
2. stage 4 on a host whose bursty VMs fund their wallets while idle and
   spend them in the auction when they burst — the array auction
   against the scalar heap auction, on bit-identical outcomes;
3. a 10k-VM single-process ``bulk`` tick, which must fit inside one
   1 s control period — the paper's "negligible fraction of the
   period" requirement (§III-B2) pushed to cloud-host density;
4. the node-scaling curve of the serial in-process ``NodeManager``
   versus the process-sharded ``ShardedNodeManager`` (shared-memory
   telemetry) driving the same cluster;
5. one simulated host sub-step (``Node.step``, the compiled topology)
   at the 528-vCPU ``host-dense`` shape, or a 2-VM and a 24-vCPU host
   under ``BENCH_SMOKE=1``, with the recursive ``CfsScheduler`` oracle's
   own cost recorded beside it as an ungated reference.

All numbers land in ``benchmarks/results/BENCH_controller.json``
(sections ``bulk``/``auction``/``tick10k``/``sharded``/``sim_step``,
``*_smoke`` variants under ``BENCH_SMOKE=1``) and are gated against the
committed repo-root baseline by ``check_perf_regression.py``.
"""

import copy
import functools
import json
import os
import platform
import time
from statistics import median

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.sim.node_manager import NodeManager, Shard, ShardedNodeManager
from repro.sim.report import render_table
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import LARGE, MEDIUM, SMALL, VMTemplate

from bench_scaling import _controller_host, _dense_vms, _stage25
from conftest import emit, results_path

PERF_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: one control period — the hard budget every tick must fit inside
CONTROL_PERIOD_S = 1.0

# -- shared helpers --------------------------------------------------------------


def _suffix():
    return "_smoke" if PERF_SMOKE else ""


def _merge_section(name, section):
    out_path = results_path("BENCH_controller.json")
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing[name + _suffix()] = section
    out_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _stage_costs(reports):
    """Median per-tick stage costs — robust to scheduler/GC spikes, so
    the regression gate sees the recurring cost, not one noisy tick."""
    return {
        "stage1_seconds_per_tick": median(r.timings.monitor for r in reports),
        "stage2_5_seconds_per_tick": median(_stage25(r.timings) for r in reports),
        "stage6_seconds_per_tick": median(r.timings.enforce for r in reports),
        "total_seconds_per_tick": median(r.timings.total for r in reports),
    }


# -- 1. two-engine full-tick comparison ------------------------------------------

ENGINE_VMS = 24 if PERF_SMOKE else 160
ENGINE_TICKS = 8 if PERF_SMOKE else 25


def _measure_engine(engine):
    node, ctrl = _controller_host(ENGINE_VMS, engine=engine)
    t = 1.0
    for _ in range(ctrl.config.history_len + 1):
        node.step(1.0)
        t += 1.0
        ctrl.tick(t)
    reports = []
    for _ in range(ENGINE_TICKS):
        node.step(1.0)
        t += 1.0
        reports.append(ctrl.tick(t))
    return _stage_costs(reports), reports


def test_bulk_full_tick_speedup(once):
    """Scalar vs bulk full-tick cost; records the ``bulk`` baseline
    section.  The report streams must be bit-identical — the speedup
    may not come from computing something else."""

    def compare():
        return {engine: _measure_engine(engine)
                for engine in ("scalar", "bulk")}

    measured = once(compare)

    _, scalar_reports = measured["scalar"]
    _, bulk_reports = measured["bulk"]
    for i, (a, b) in enumerate(zip(scalar_reports, bulk_reports)):
        assert a.allocations == b.allocations, f"tick {i}: allocations differ"
        assert a.wallets == b.wallets, f"tick {i}: wallets differ"
        assert a.market_initial == b.market_initial, f"tick {i}"
        assert a.freely_distributed == b.freely_distributed, f"tick {i}"

    costs = {engine: m[0] for engine, m in measured.items()}
    speedup = (
        costs["scalar"]["total_seconds_per_tick"]
        / costs["bulk"]["total_seconds_per_tick"]
    )
    section = {
        "num_vms": ENGINE_VMS,
        "ticks": ENGINE_TICKS,
        "speedup_total_vs_scalar": speedup,
        **costs,
    }
    _merge_section("bulk", section)

    emit(
        render_table(
            ["engine", "stage 1", "stage 2-5", "stage 6", "total / tick"],
            [
                [
                    engine,
                    f"{c['stage1_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{c['stage2_5_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{c['stage6_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{c['total_seconds_per_tick'] * 1e3:.3f} ms",
                ]
                for engine, c in costs.items()
            ]
            + [["bulk vs scalar", "", "", "", f"{speedup:.2f}x"]],
            title=f"full-tick engine comparison at {ENGINE_VMS} VMs",
        )
    )
    if not PERF_SMOKE:
        # at full density the array path must win the *whole* tick
        assert speedup > 1.0, (
            f"bulk full tick ({costs['bulk']['total_seconds_per_tick'] * 1e3:.2f} ms)"
            f" not faster than scalar"
            f" ({costs['scalar']['total_seconds_per_tick'] * 1e3:.2f} ms)"
        )


# -- 2. stage 4 with funded wallets ----------------------------------------------

AUCTION_VMS = 24 if PERF_SMOKE else 160
AUCTION_TICKS = 8 if PERF_SMOKE else 25
#: Bursty VMs burst for BURST_ON of every BURST_PERIOD ticks (staggered
#: by VM index) and idle in between, filling their wallets.
BURST_PERIOD, BURST_ON = 10, 3


def _set_bursty_demand(vms, tick):
    for k, vm in enumerate(vms):
        if k % 2:
            vm.set_uniform_demand(0.6)
        else:
            vm.set_uniform_demand(
                1.0 if (tick + k) % BURST_PERIOD < BURST_ON else 0.05
            )


def test_auction_with_funded_wallets(once):
    """Stage 4 where half the VMs burst on wallets they filled while
    idle: the array auction against the scalar heap auction.  Every
    auction outcome and wallet must match bit for bit."""

    def run(engine):
        node, ctrl, vms = _dense_vms(AUCTION_VMS, engine)
        t = 1.0
        reports = []
        for tick in range(BURST_PERIOD + AUCTION_TICKS):
            _set_bursty_demand(vms, tick)
            node.step(1.0)
            t += 1.0
            report = ctrl.tick(t)
            if tick >= BURST_PERIOD:  # every wallet has seen an idle phase
                reports.append(report)
        return reports

    measured = once(lambda: {e: run(e) for e in ("scalar", "bulk")})
    purchases = 0
    for i, (a, b) in enumerate(zip(measured["scalar"], measured["bulk"])):
        assert a.auction.purchased == b.auction.purchased, f"tick {i}"
        assert a.auction.spent_per_vm == b.auction.spent_per_vm, f"tick {i}"
        assert a.auction.rounds == b.auction.rounds, f"tick {i}"
        assert a.wallets == b.wallets, f"tick {i}: wallets differ"
        purchases += len(a.auction.spent_per_vm)
    assert purchases > 0, "no VM ever bought in the auction"
    costs = {
        engine: {"stage4_seconds_per_tick": median(
            r.timings.auction for r in reports
        )}
        for engine, reports in measured.items()
    }
    rounds = median(r.auction.rounds for r in measured["bulk"])
    _merge_section("auction", {
        "num_vms": AUCTION_VMS,
        "ticks": AUCTION_TICKS,
        "median_rounds": rounds,
        **costs,
    })
    emit(
        render_table(
            ["engine", "stage 4 / tick"],
            [
                [engine, f"{c['stage4_seconds_per_tick'] * 1e3:.3f} ms"]
                for engine, c in costs.items()
            ],
            title=f"auction with funded wallets at {AUCTION_VMS} VMs "
                  f"(median {rounds:g} rounds)",
        )
    )


# -- 3. the 10k-VM single-process tick -------------------------------------------

TICK10K_VMS = 2_000 if PERF_SMOKE else 10_000
TICK10K_TICKS = 5


def _dense_host(num_vms):
    """One fat host packed with single-vCPU VMs under the bulk engine."""
    spec = NodeSpec(
        name="dense10k",
        cpu_model="bench",
        sockets=2,
        cores_per_socket=32,
        threads_per_core=2,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=2048 * 1024,
        freq_jitter_mhz=0.0,
    )
    node = Node(spec, seed=1)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
    )
    ctrl.keep_reports = False
    template = VMTemplate("tenant", vcpus=1, vfreq_mhz=100.0)
    for k in range(num_vms):
        vm = hv.provision(template, f"t-{k}")
        ctrl.register_vm(vm.name, template.vfreq_mhz)
        vm.set_uniform_demand(0.4 + 0.1 * (k % 7))
    return node, ctrl


def test_tick_10k_inside_control_period(once):
    """A 10k-VM host must tick well inside one 1 s control period in a
    single process — the density target the bulk interface exists for."""

    def run():
        node, ctrl = _dense_host(TICK10K_VMS)
        t = 1.0
        for _ in range(ctrl.config.history_len + 1):
            node.step(1.0)
            t += 1.0
            ctrl.tick(t)
        reports, walls = [], []
        for _ in range(TICK10K_TICKS):
            node.step(1.0)
            t += 1.0
            t0 = time.perf_counter()
            reports.append(ctrl.tick(t))
            walls.append(time.perf_counter() - t0)
        return reports, walls

    reports, walls = once(run)
    section = {
        "num_vms": TICK10K_VMS,
        "ticks": TICK10K_TICKS,
        "engine": "bulk",
        "control_period_s": CONTROL_PERIOD_S,
        "max_tick_seconds": max(walls),
        **_stage_costs(reports),
    }
    _merge_section("tick10k", section)

    emit(
        render_table(
            ["VMs", "mean tick", "worst tick", "budget"],
            [[
                TICK10K_VMS,
                f"{section['total_seconds_per_tick'] * 1e3:.1f} ms",
                f"{max(walls) * 1e3:.1f} ms",
                f"{CONTROL_PERIOD_S * 1e3:.0f} ms",
            ]],
            title="single-process bulk tick at cloud density",
        )
    )
    assert max(walls) < CONTROL_PERIOD_S, (
        f"worst tick {max(walls):.3f}s blows the {CONTROL_PERIOD_S}s control period"
    )


# -- 4. serial vs sharded control-plane scaling ----------------------------------

NODE_COUNTS = (2,) if PERF_SMOKE else (2, 4, 8)
VMS_PER_NODE = 4 if PERF_SMOKE else 16
CLUSTER_TICKS = 5

_CLUSTER_SPEC = NodeSpec(
    name="shardnode",
    cpu_model="bench",
    sockets=1,
    cores_per_socket=8,
    threads_per_core=2,
    fmax_mhz=2400.0,
    fmin_mhz=1200.0,
    memory_mb=128 * 1024,
    freq_jitter_mhz=0.0,
)

_TENANT = VMTemplate("tenant2", vcpus=2, vfreq_mhz=500.0)


def _cluster_node(seed, vms_per_node):
    node = Node(_CLUSTER_SPEC, seed=seed)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=_CLUSTER_SPEC.logical_cpus, fmax_mhz=_CLUSTER_SPEC.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
    )
    ctrl.keep_reports = False
    for k in range(vms_per_node):
        vm = hv.provision(_TENANT, f"vm-{k}")
        ctrl.register_vm(vm.name, _TENANT.vfreq_mhz)
        vm.set_uniform_demand(0.4 + 0.05 * (k % 8))
    return node, ctrl


def _build_group(node_ids, vms_per_node):
    """Nodes + controllers for a shard (also used in-process for the
    serial comparison — both planes run identical clusters)."""
    nodes, controllers = [], {}
    for nid in node_ids:
        seed = 100 + int(nid.split("-")[1])
        node, ctrl = _cluster_node(seed, vms_per_node)
        nodes.append(node)
        controllers[nid] = ctrl
    return nodes, controllers


def _shard_factory(node_ids, vms_per_node):
    nodes, controllers = _build_group(node_ids, vms_per_node)

    def pre_tick(t):
        for node in nodes:
            node.step(1.0)

    return Shard(controllers, pre_tick=pre_tick)


def _shard_map(num_nodes, vms_per_node):
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    num_shards = min(num_nodes, 4)
    groups = [node_ids[i::num_shards] for i in range(num_shards)]
    return {
        f"shard-{i}": functools.partial(_shard_factory, tuple(group), vms_per_node)
        for i, group in enumerate(groups)
    }


def _measure_serial(num_nodes, vms_per_node, ticks):
    node_ids = [f"node-{i}" for i in range(num_nodes)]
    nodes, controllers = _build_group(node_ids, vms_per_node)
    manager = NodeManager(controllers)

    def one_tick(t):
        for node in nodes:
            node.step(1.0)
        return manager.tick(t)

    one_tick(1.0)  # warm
    walls, result = [], None
    for k in range(ticks):
        t0 = time.perf_counter()
        result = one_tick(float(k + 2))
        walls.append(time.perf_counter() - t0)
    return median(walls), result


def _measure_sharded(num_nodes, vms_per_node, ticks):
    """Median tick, last tick's errors and every node's final report
    (fetched after the timed ticks)."""
    with ShardedNodeManager(_shard_map(num_nodes, vms_per_node)) as manager:
        manager.tick(1.0)  # warm (workers already built by __enter__)
        walls, result = [], None
        for k in range(ticks):
            t0 = time.perf_counter()
            result = manager.tick(float(k + 2))
            walls.append(time.perf_counter() - t0)
        reports = {
            nid: manager.fetch_report(nid)
            for ids in manager.nodes_by_shard.values()
            for nid in ids
        }
    return median(walls), result.errors, reports


def test_sharded_node_scaling(once):
    """Seconds per cluster tick, serial vs process-sharded, as the
    node count grows.  The two planes must agree on every allocation."""

    def run():
        curve = {}
        for n in NODE_COUNTS:
            serial_cost, serial_last = _measure_serial(
                n, VMS_PER_NODE, CLUSTER_TICKS
            )
            sharded_cost, sharded_errors, sharded_reports = _measure_sharded(
                n, VMS_PER_NODE, CLUSTER_TICKS
            )
            assert not serial_last.errors and not sharded_errors
            assert set(sharded_reports) == set(serial_last)
            for nid, report in serial_last.items():
                assert report.allocations == sharded_reports[nid].allocations, (
                    f"{n} nodes: {nid} diverged between planes"
                )
            curve[str(n)] = {
                "num_shards": min(n, 4),
                "serial_seconds_per_tick": serial_cost,
                "sharded_seconds_per_tick": sharded_cost,
            }
        return curve

    curve = once(run)
    _merge_section(
        "sharded",
        {"vms_per_node": VMS_PER_NODE, "ticks": CLUSTER_TICKS, "nodes": curve},
    )

    emit(
        render_table(
            ["nodes", "shards", "serial / tick", "sharded / tick"],
            [
                [
                    n,
                    row["num_shards"],
                    f"{row['serial_seconds_per_tick'] * 1e3:.1f} ms",
                    f"{row['sharded_seconds_per_tick'] * 1e3:.1f} ms",
                ]
                for n, row in curve.items()
            ],
            title=f"control-plane scaling at {VMS_PER_NODE} VMs/node",
        )
    )


# -- 5. one simulated host sub-step ------------------------------------------------

SIM_SUBSTEPS = 20 if PERF_SMOKE else 40
SIM_DT = 0.5


def _sim_spec(cores):
    return NodeSpec(
        name=f"sim{cores}",
        cpu_model=f"{cores}-core SMT host",
        sockets=1,
        cores_per_socket=cores,
        threads_per_core=2,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=1024 * 1024,
        freq_jitter_mhz=25.0,
    )


#: name -> (physical cores, [(template, count)])
SIM_SHAPES = (
    {
        "two_vm": (2, [(SMALL, 2)]),
        "vcpu24": (16, [(SMALL, 4), (MEDIUM, 2), (LARGE, 2)]),
    }
    if PERF_SMOKE
    # host-dense: 97% of Eq. 7 capacity in the paper's 5:1:2 mix
    else {"host_dense": (128, [(SMALL, 120), (MEDIUM, 24), (LARGE, 48)])}
)


def _sim_host(cores, mix, seed=5):
    """A host whose vCPUs run capped at their Eq. 2 guarantee (what the
    controller converges to) with seeded demands around it."""
    node = Node(_sim_spec(cores), seed=seed)
    hv = Hypervisor(node)
    k = 0
    for template, count in mix:
        for _ in range(count):
            vm = hv.provision(template, f"vm{k}")
            k += 1
            quota = int(template.vfreq_mhz / node.spec.fmax_mhz * 100_000)
            for vcpu in vm.vcpus:
                node.fs.write(f"{vcpu.cgroup_path}/cpu.max", f"{quota} 100000")
    return node


def _set_sim_demands(node, rng):
    for ent in node.entities:
        ent.demand = 1.0 if rng.random() < 0.4 else float(rng.random())


def _time_substeps(node, step):
    rng = np.random.default_rng(11)
    walls = []
    for i in range(SIM_SUBSTEPS + 3):
        _set_sim_demands(node, rng)
        t0 = time.perf_counter()
        step(node)
        if i >= 3:  # the first steps build the topology and warm caches
            walls.append(time.perf_counter() - t0)
    return median(walls)


def test_sim_node_step(once):
    """Compiled ``Node.step`` per sub-step, gated; the oracle scheduler's
    own cost beside it, ungated.  One step on clones must agree exactly
    first — the speedup may not come from computing something else."""

    def run():
        out = {}
        for name, (cores, mix) in SIM_SHAPES.items():
            node = _sim_host(cores, mix)
            oracle = copy.deepcopy(node)
            rng = np.random.default_rng(3)
            _set_sim_demands(node, rng)
            for ent, twin in zip(node.entities, oracle.entities):
                twin.demand = ent.demand
            node.step(SIM_DT)
            oracle.scheduler.schedule(oracle.entities, SIM_DT)
            assert [e.allocated for e in node.entities] == [
                e.allocated for e in oracle.entities
            ], f"{name}: compiled step diverged from the oracle"
            topo = node.topology()
            cpus = node.spec.logical_cpus
            out[name] = {
                "vcpus": len(node.entities),
                "cgroups": topo.num_groups,
                "substeps": SIM_SUBSTEPS,
                "node_step_seconds_per_tick": _time_substeps(
                    node, lambda n: n.step(SIM_DT)
                ),
                # the scheduler alone, compiled and recursive (ungated)
                "schedule_seconds": _time_substeps(
                    node, lambda n: topo.schedule(topo.demands(), SIM_DT, cpus)
                ),
                "oracle_schedule_seconds": _time_substeps(
                    oracle, lambda n: n.scheduler.schedule(n.entities, SIM_DT)
                ),
            }
        return out

    shapes = once(run)
    _merge_section("sim_step", {
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "dt_s": SIM_DT,
        "hosts": shapes,
    })

    emit(
        render_table(
            ["host", "vCPUs", "cgroups", "Node.step / sub-step", "schedule", "oracle schedule"],
            [
                [
                    name,
                    row["vcpus"],
                    row["cgroups"],
                    f"{row['node_step_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{row['schedule_seconds'] * 1e3:.3f} ms",
                    f"{row['oracle_schedule_seconds'] * 1e3:.3f} ms",
                ]
                for name, row in shapes.items()
            ],
            title="simulated host sub-step: compiled topology vs recursive oracle",
        )
    )
