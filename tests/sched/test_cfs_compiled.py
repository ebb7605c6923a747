"""The compiled host step against the recursive CFS oracle, bit for bit.

``Node.step`` runs the flat :class:`~repro.sched.topology.HostTopology`;
:func:`reference_step` below is the per-object step it replaced, built on
``CfsScheduler.schedule``.  Both run on clones of one node, through
several sub-steps with churn and ``cpu.max``/``cpu.weight`` writes in
between, and every observable must agree exactly: grants, ``cpu.stat``,
``/proc/<tid>/stat``, placement, DVFS, energy.  The harness half does the
same for ``Simulation``'s per-VM series and workload progress.
"""

from __future__ import annotations

import copy
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroups.cpu import DEFAULT_SHARES, DEFAULT_WEIGHT
from repro.cgroups.fs import CgroupVersion
from repro.hw.node import MACHINE_SLICE, Node
from repro.hw.nodespecs import NodeSpec
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from repro.sim.engine import Simulation
from repro.sim.metrics import MetricsRecorder
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from repro.workloads.base import Workload
from tests.sched.test_cfs_properties import random_host


def reference_step(node: Node, dt: float):
    """The per-object node step: recursive CFS, then a procfs charge,
    placement and core-load update per thread.  Returns the oracle's
    per-cgroup limits."""
    entities = node.entities
    node.runnable_threads = sum(1 for e in entities if e.demand > 0.05)
    allocations = CfsScheduler(node.fs, node.spec.logical_cpus).schedule(entities, dt)

    tids = [e.tid for e in entities]
    utils = [e.allocated / dt for e in entities]
    for ent in entities:
        node.procfs.charge(ent.tid, ent.allocated)
    cores = node.affinity.step(tids, utils, dt)
    for tid, core in zip(tids, cores):
        node.procfs.set_processor(tid, core)

    core_load = node.affinity.load_per_core(tids, utils)
    node.dvfs.step(core_load, dt)
    node.sysfs.update(node.dvfs.freqs_khz())
    node_util = float(np.mean(core_load)) if len(core_load) else 0.0
    node.energy.step(node_util, node.dvfs.mean_mhz(), dt)
    node.clock_s += dt
    return {path: a.limit for path, a in allocations.items()}


def neumaier_sum(iterable, start=0):
    """CPython 3.12's ``sum`` for float items (compensated)."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if isinstance(total, float):
            break
    else:
        return total
    c = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    if c and np.isfinite(c):
        total += c
    return total


def spec_for(num_cpus: int) -> NodeSpec:
    return NodeSpec(
        name="t",
        cpu_model="test CPU",
        sockets=1,
        cores_per_socket=num_cpus,
        threads_per_core=1,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=64 * 1024,
        freq_jitter_mhz=20.0,
    )


def node_from_host(host, seed: int = 7) -> Node:
    """A node whose cgroup tree and entities are the drawn host's."""
    fs, drawn, _, num_cpus = host
    node = Node(spec_for(num_cpus), cgroup_version=fs.version, seed=seed)
    node.fs = fs
    node.scheduler = CfsScheduler(fs, num_cpus)
    for ent in drawn:
        tid = node.procfs.spawn("CPU 0/KVM")
        node.register_entity(
            SchedEntity(tid=tid, cgroup_path=ent.cgroup_path, weight=ent.weight, demand=ent.demand)
        )
    return node


def observe(node: Node):
    """Everything a step writes, in comparable form."""
    groups = []
    stack = [("/", node.fs.root)]
    while stack:
        path, group = stack.pop()
        cpu = group.cpu
        groups.append((path, cpu.usage_usec, cpu.user_usec, cpu.system_usec))
        base = "" if path == "/" else path
        stack.extend((f"{base}/{name}", child) for name, child in group.children.items())
    threads = []
    for ent in node.entities:
        stat = node.procfs.stat(ent.tid)
        threads.append(
            (ent.tid, ent.allocated, ent.total_cpu_seconds, stat.utime_ticks,
             stat.processor, node.affinity.core_of(ent.tid))
        )
    return (
        sorted(groups),
        threads,
        node.dvfs.freqs_mhz.tobytes(),
        [node.sysfs.scaling_cur_freq(c) for c in range(node.sysfs.num_cpus)],
        node.energy.energy_j,
        node.runnable_threads,
        node.clock_s,
    )


# -- changes made between steps, applied identically to both clones --------------


def _paths(node: Node):
    out = []
    stack = [("/", node.fs.root)]
    while stack:
        path, group = stack.pop()
        out.append(path)
        base = "" if path == "/" else path
        stack.extend((f"{base}/{name}", child) for name, child in group.children.items())
    return sorted(out)


def write_quota(node: Node, pick: int, ratio: float) -> None:
    path = _paths(node)[pick % len(_paths(node))]
    if path == "/":
        return
    quota = -1 if ratio > 4.0 else int(ratio * 100_000)
    if node.fs.version is CgroupVersion.V2:
        text = "max 100000" if quota < 0 else f"{quota} 100000"
        node.fs.write(f"{path}/cpu.max", text)
    else:
        node.fs.write(f"{path}/cpu.cfs_quota_us", str(quota))


def write_weight(node: Node, pick: int, weight: int) -> None:
    path = _paths(node)[pick % len(_paths(node))]
    if path == "/":
        return
    if node.fs.version is CgroupVersion.V2:
        node.fs.write(f"{path}/cpu.weight", str(weight))
    else:
        shares = max(2, round(weight * DEFAULT_SHARES / DEFAULT_WEIGHT))
        node.fs.write(f"{path}/cpu.shares", str(shares))


def add_thread(node: Node, pick: int, demand: float) -> None:
    parent = _paths(node)[pick % len(_paths(node))]
    path = ("" if parent == "/" else parent) + f"/new{node.procfs.generation}"
    node.fs.mkdir(path)
    tid = node.procfs.spawn("CPU 0/KVM")
    node.fs.attach_thread(path, tid)
    node.register_entity(SchedEntity(tid=tid, cgroup_path=path, demand=demand))


def remove_thread(node: Node, pick: int) -> None:
    entities = node.entities
    if not entities:
        return
    ent = entities[pick % len(entities)]
    group = node.fs.node(ent.cgroup_path) if node.fs.exists(ent.cgroup_path) else None
    if group is not None and ent.tid in group.threads:
        group.detach_thread(ent.tid)
    node.procfs.kill(ent.tid)
    node.unregister_entity(ent.tid)


def remove_leaf(node: Node, pick: int) -> None:
    """rmdir an empty leaf; entities naming it fall out of the tree."""
    leaves = [
        p for p in _paths(node)
        if p not in ("/", MACHINE_SLICE)
        and not node.fs.node(p).children and not node.fs.node(p).threads
    ]
    if leaves:
        node.fs.rmdir(leaves[pick % len(leaves)])


changes = st.one_of(
    st.tuples(st.just(write_quota), st.integers(0, 99), st.floats(0.01, 6.0)),
    st.tuples(st.just(write_weight), st.integers(0, 99), st.integers(1, 10_000)),
    st.tuples(st.just(add_thread), st.integers(0, 99), st.floats(0.0, 1.0)),
    st.tuples(st.just(remove_thread), st.integers(0, 99)),
    st.tuples(st.just(remove_leaf), st.integers(0, 99)),
)


class TestCompiledStepMatchesOracle:
    @given(
        random_host(rich=True),
        st.lists(
            st.tuples(
                st.lists(changes, max_size=3),
                st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
                st.sampled_from([0.5, 1.0, 0.1]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_over_substeps(self, host, steps):
        node = node_from_host(host)
        oracle = copy.deepcopy(node)
        for todo, demands, dt in steps:
            for twin in (node, oracle):
                for fn, *args in todo:
                    fn(twin, *args)
                for k, ent in enumerate(twin.entities):
                    ent.demand = demands[k % len(demands)]
            node.step(dt)
            limits = reference_step(oracle, dt)
            assert observe(node) == observe(oracle)
            assert node.topology().limits() == limits

    @given(random_host(rich=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_under_compensated_sum(self, host, seed):
        """From Python 3.12 on ``sum`` over floats is compensated; the
        compiled step must follow whichever ``sum`` the oracle uses.
        Full-precision demands make the two sums differ often."""
        import repro.sched.cfs as cfs
        import repro.sched.topology as topology

        node = node_from_host(host)
        oracle = copy.deepcopy(node)
        demands = np.random.default_rng(seed).random(len(node.entities)).tolist()
        for twin in (node, oracle):
            for ent, demand in zip(twin.entities, demands):
                ent.demand = demand
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cfs, "sum", neumaier_sum, raising=False)
            mp.setattr(topology, "sum", neumaier_sum, raising=False)
            node.step(1.0)
            limits = reference_step(oracle, 1.0)
        assert observe(node) == observe(oracle)
        assert node.topology().limits() == limits

    def test_contended_groups_reach_fair_share(self, monkeypatch):
        """The weighted-fair-share branch runs, and still matches."""
        import repro.sched.topology as topology

        calls = []
        real = topology.weighted_fair_share

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(topology, "weighted_fair_share", counting)
        node = Node(spec_for(2), seed=3)
        for i in range(3):
            path = f"{MACHINE_SLICE}/vm{i}"
            node.fs.makedirs(path)
            node.fs.write(f"{path}/cpu.weight", str(100 * (i + 1)))
            for j in range(2):
                node.fs.makedirs(f"{path}/vcpu{j}")
                tid = node.procfs.spawn("CPU 0/KVM")
                node.register_entity(
                    SchedEntity(tid=tid, cgroup_path=f"{path}/vcpu{j}", demand=1.0)
                )
        oracle = copy.deepcopy(node)
        for _ in range(3):
            node.step(0.5)
            reference_step(oracle, 0.5)
            assert observe(node) == observe(oracle)
        assert calls


# -- rebuilds ------------------------------------------------------------------------


def _host() -> Node:
    node = Node(spec_for(4), seed=1)
    path = f"{MACHINE_SLICE}/vm/vcpu0"
    node.fs.makedirs(path)
    tid = node.procfs.spawn("CPU 0/KVM")
    node.fs.attach_thread(path, tid)
    node.register_entity(SchedEntity(tid=tid, cgroup_path=path, demand=1.0))
    node.step(0.5)
    return node


def _rebuilt_by(change) -> bool:
    node = _host()
    before = node.topology()
    change(node)
    after = node.topology()
    node.step(0.5)
    return after is not before


class TestTopologyRebuilds:
    def test_stable_without_changes(self):
        assert not _rebuilt_by(lambda n: None)

    def test_cgroupfs_mkdir(self):
        assert _rebuilt_by(lambda n: n.fs.mkdir(f"{MACHINE_SLICE}/other"))

    def test_cgroupfs_rmdir(self):
        def change(n):
            n.fs.mkdir(f"{MACHINE_SLICE}/other")
            n.topology()
            n.fs.rmdir(f"{MACHINE_SLICE}/other")
        assert _rebuilt_by(change)

    def test_direct_add_child(self):
        assert _rebuilt_by(lambda n: n.fs.node(MACHINE_SLICE).add_child("other"))

    def test_direct_remove_child(self):
        def change(n):
            n.fs.node(MACHINE_SLICE).add_child("other")
            n.topology()
            n.fs.node(MACHINE_SLICE).remove_child("other")
        assert _rebuilt_by(change)

    def test_attach_thread(self):
        def change(n):
            tid = n.procfs.spawn("x")
            n.topology()
            n.fs.attach_thread(f"{MACHINE_SLICE}/vm", tid)
        assert _rebuilt_by(change)

    def test_direct_detach_thread(self):
        """As ``Hypervisor.destroy`` does: on the CgroupNode, not the fs."""
        def change(n):
            tid = n.entities[0].tid
            n.fs.node(f"{MACHINE_SLICE}/vm/vcpu0").detach_thread(tid)
        assert _rebuilt_by(change)

    def test_register_entity(self):
        def change(n):
            tid = n.procfs.spawn("x")
            n.topology()
            n.register_entity(SchedEntity(tid=tid, cgroup_path=f"{MACHINE_SLICE}/vm"))
        assert _rebuilt_by(change)

    def test_unregister_entity(self):
        assert _rebuilt_by(lambda n: n.unregister_entity(n.entities[0].tid))

    def test_procfs_spawn_and_kill(self):
        assert _rebuilt_by(lambda n: n.procfs.spawn("x"))
        node = _host()
        tid = node.procfs.spawn("x")
        before = node.topology()
        node.procfs.kill(tid)
        assert node.topology() is not before

    def test_quota_and_weight_writes_do_not_rebuild_but_apply(self):
        node = _host()
        before = node.topology()
        node.fs.write(f"{MACHINE_SLICE}/vm/cpu.max", "10000 100000")
        node.fs.write(f"{MACHINE_SLICE}/vm/cpu.weight", "300")
        node.step(1.0)
        assert node.topology() is before
        assert node.entities[0].allocated == pytest.approx(0.1)

    def test_unregistered_thread_no_longer_scheduled(self):
        node = _host()
        ent = node.entities[0]
        node.unregister_entity(ent.tid)
        node.step(0.5)
        assert ent.allocated == 1.0 * 0.5  # untouched since its last step
        assert node.thread_allocated.size == 0

    def test_copies_rebuild_their_own_topology(self):
        node = _host()
        clone = copy.deepcopy(node)
        assert clone.topology() is not node.topology()
        clone.step(0.5)
        node.step(0.5)
        assert observe(clone) == observe(node)


# -- the harness ----------------------------------------------------------------------


class RecordingWorkload(Workload):
    """Seeded on/off demand that records every ``advance`` call."""

    def __init__(self, num_vcpus: int, seed: int) -> None:
        super().__init__(num_vcpus)
        self.seed = seed
        self.calls = []

    def demand(self, vcpu: int, t: float) -> float:
        h = zlib.crc32(f"{self.seed}:{vcpu}:{t:.3f}".encode())
        return (h % 1000) / 999.0 if h % 3 else 1.0

    def advance(self, vcpu, t, dt, cpu_seconds, freq_mhz) -> None:
        self.calls.append((vcpu, t, dt, cpu_seconds, freq_mhz, type(freq_mhz)))


class ReferenceSimulation(Simulation):
    """``Simulation`` with the per-vCPU procfs/sysfs harness and the
    reference node step."""

    def run(self, duration, **kwargs):
        real_step = self.node.step
        self.node.step = lambda dt: reference_step(self.node, dt)
        try:
            super().run(duration, **kwargs)
        finally:
            self.node.step = real_step

    def _absorb_progress(self) -> None:
        for vm in self.hypervisor.vms:
            workload = vm.workload
            if workload is None:
                continue
            for vcpu in vm.vcpus:
                core = self.node.last_core_of(vcpu.tid)
                freq = self.node.effective_mhz(self.node.core_frequency_mhz(core))
                workload.advance(vcpu.index, self.t, self.dt, vcpu.entity.allocated, freq)

    def _record_actuals(self) -> None:
        node = self.node
        for vm in self.hypervisor.vms:
            freqs = []
            for vcpu in vm.vcpus:
                core = node.last_core_of(vcpu.tid)
                share = vcpu.entity.allocated / self.dt
                freqs.append(share * node.core_frequency_mhz(core))
            self.metrics.record_vfreq_actual(self.t, vm.name, float(np.mean(freqs)))
        self.metrics.core_freq_mean.append(self.t, node.dvfs.mean_mhz())
        self.metrics.core_freq_std.append(self.t, node.dvfs.std_mhz())
        total_alloc = sum(e.allocated for e in node.entities)
        self.metrics.node_utilisation.append(
            self.t, total_alloc / (node.spec.logical_cpus * self.dt)
        )


def _series(metrics: MetricsRecorder):
    out = {}
    for name, ts in metrics.vfreq_actual.items():
        out[("actual", name)] = (list(ts.times), list(ts.values))
    for name in ("core_freq_mean", "core_freq_std", "node_utilisation"):
        ts = getattr(metrics, name)
        out[name] = (list(ts.times), list(ts.values))
    return out


class TestHarnessMatchesPerVcpuReads:
    @pytest.mark.parametrize("with_cache", [False, True])
    def test_series_and_progress_identical(self, with_cache):
        from repro.hw.cache import CacheContentionModel

        node = Node(spec_for(6), seed=11,
                    cache=CacheContentionModel(physical_cores=3) if with_cache else None)
        hv = Hypervisor(node, enforce_admission=False)
        # VM sizes around np.mean's pairwise-summation block (8+ vCPUs).
        sizes = [1, 2, 3, 9, 2, 12, 1]
        for k, n in enumerate(sizes):
            vm = hv.provision(VMTemplate(name=f"t{n}", vcpus=n, vfreq_mhz=600.0, memory_mb=256), f"vm{k}")
            if k != 2:  # one VM without a workload
                vm.workload = RecordingWorkload(n, seed=k)
        twin_node, twin_hv = copy.deepcopy((node, hv))
        sim = Simulation(node, hv, dt=0.5)
        ref = ReferenceSimulation(twin_node, twin_hv, dt=0.5)
        for round_ in range(4):
            sim.run(2.0)
            ref.run(2.0)
            assert _series(sim.metrics) == _series(ref.metrics)
            for vm, twin in zip(hv.vms, twin_hv.vms):
                assert getattr(vm.workload, "calls", None) == getattr(twin.workload, "calls", None)
            # churn between runs: one VM leaves, another arrives
            for h in (hv, twin_hv):
                h.destroy(h.vms[round_ % len(h.vms)].name)
                vm = h.provision(
                    VMTemplate(name="late", vcpus=round_ + 2, vfreq_mhz=600.0, memory_mb=256),
                    f"late{round_}",
                )
                vm.workload = RecordingWorkload(round_ + 2, seed=100 + round_)
        assert observe(node) == observe(twin_node)
