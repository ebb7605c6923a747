"""Property-based tests of the hierarchical scheduler.

Random two-level KVM-shaped trees (VM groups with vCPU children, random
demands, random quotas) must always satisfy the CFS bandwidth-control
invariants, regardless of shape.  ``random_host(rich=True)`` draws the
general trees the compiled step is checked on (test_cfs_compiled.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroups.cpu import QuotaSpec
from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity


def _draw_quota(draw, fs, path, quotas):
    """No quota, a tight one or a loose one on ``path``."""
    kind = draw(st.sampled_from(["unlimited", "tight", "loose"]))
    if kind == "unlimited":
        return
    high = 1.0 if kind == "tight" else 8.0
    ratio = draw(st.floats(0.01, high))
    period = draw(st.sampled_from([100_000, 50_000, 250_000]))
    quota = QuotaSpec(int(ratio * period), period)
    fs.set_quota(path, quota)
    quotas[path] = quota.ratio()


def _rich_host(draw):
    """Nested trees with threads at every level, non-default weights,
    quotas anywhere, both hierarchy versions and an occasional entity
    whose cgroup does not exist."""
    num_cpus = draw(st.integers(1, 8))
    fs = CgroupFS(draw(st.sampled_from([CgroupVersion.V1, CgroupVersion.V2])))
    fs.makedirs("/machine.slice")
    entities = []
    quotas = {}

    def add_threads(path, most):
        for _ in range(draw(st.integers(0, most))):
            demand = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
            weight = draw(st.sampled_from([1.0, 1.0, 0.5, 3.0]))
            entities.append(
                SchedEntity(tid=1000 + len(entities), cgroup_path=path,
                            weight=weight, demand=demand)
            )

    def grow(path, depth):
        fs.makedirs(path)
        if draw(st.booleans()):
            fs.node(path).cpu.weight = draw(st.integers(1, 10_000))
        _draw_quota(draw, fs, path, quotas)
        add_threads(path, 4)
        if depth < 3:
            for k in range(draw(st.integers(0, 3))):
                grow(f"{path}/g{k}", depth + 1)

    add_threads("/", 1)
    add_threads("/machine.slice", 1)
    for i in range(draw(st.integers(1, 4))):
        grow(f"/machine.slice/vm{i}", 1)
    if draw(st.booleans()):
        add_threads("/machine.slice/missing", 1)
    return fs, entities, quotas, num_cpus


@st.composite
def random_host(draw, rich=False):
    if rich:
        return _rich_host(draw)
    num_cpus = draw(st.integers(1, 16))
    num_vms = draw(st.integers(1, 6))
    fs = CgroupFS(CgroupVersion.V2)
    fs.makedirs("/machine.slice")
    entities = []
    quotas = {}
    for i in range(num_vms):
        vcpus = draw(st.integers(1, 4))
        vm_path = f"/machine.slice/vm{i}"
        fs.makedirs(vm_path)
        if draw(st.booleans()):
            ratio = draw(st.floats(0.05, 4.0))
            quota = QuotaSpec(int(ratio * 100_000), 100_000)
            fs.set_quota(vm_path, quota)
            quotas[vm_path] = quota.ratio()
        for j in range(vcpus):
            path = f"{vm_path}/vcpu{j}"
            fs.makedirs(path)
            demand = draw(st.floats(0.0, 1.0))
            ent = SchedEntity(tid=1000 + 100 * i + j, cgroup_path=path, demand=demand)
            entities.append(ent)
            if draw(st.booleans()):
                ratio = draw(st.floats(0.01, 1.0))
                quota = QuotaSpec(int(ratio * 100_000), 100_000)
                fs.set_quota(path, quota)
                quotas[path] = quota.ratio()
    return fs, entities, quotas, num_cpus


class TestSchedulerInvariants:
    @given(random_host())
    @settings(max_examples=120, deadline=None)
    def test_feasibility(self, host):
        fs, entities, quotas, num_cpus = host
        dt = 1.0
        CfsScheduler(fs, num_cpus).schedule(entities, dt)
        # each thread: bounded by demand and one core
        for ent in entities:
            assert -1e-9 <= ent.allocated <= min(ent.demand, 1.0) * dt + 1e-9
        # node: bounded by capacity
        total = sum(e.allocated for e in entities)
        assert total <= num_cpus * dt + 1e-6

    @given(random_host())
    @settings(max_examples=120, deadline=None)
    def test_quota_never_exceeded(self, host):
        fs, entities, quotas, num_cpus = host
        dt = 1.0
        CfsScheduler(fs, num_cpus).schedule(entities, dt)
        for path, ratio in quotas.items():
            subtree = fs.node(path)
            used = sum(
                e.allocated
                for e in entities
                if e.cgroup_path == path or e.cgroup_path.startswith(path + "/")
            )
            assert used <= ratio * dt + 1e-6, path

    @given(random_host())
    @settings(max_examples=120, deadline=None)
    def test_work_conserving(self, host):
        """Nothing is left on the table: total granted equals the minimum
        of node capacity and the tree's own (quota-capped) absorbable
        demand."""
        fs, entities, quotas, num_cpus = host
        dt = 1.0
        allocations = CfsScheduler(fs, num_cpus).schedule(entities, dt)
        total = sum(e.allocated for e in entities)
        root_limit = allocations["/"].limit
        assert total == pytest.approx(min(num_cpus * dt, root_limit), abs=1e-6)

    @given(random_host())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, host):
        fs, entities, quotas, num_cpus = host
        CfsScheduler(fs, num_cpus).schedule(entities, 1.0, charge_accounting=False)
        first = [e.allocated for e in entities]
        CfsScheduler(fs, num_cpus).schedule(entities, 1.0, charge_accounting=False)
        assert first == [e.allocated for e in entities]

    @given(random_host())
    @settings(max_examples=60, deadline=None)
    def test_accounting_matches_grants(self, host):
        fs, entities, quotas, num_cpus = host
        CfsScheduler(fs, num_cpus).schedule(entities, 1.0)
        for ent in entities:
            usage = fs.node(ent.cgroup_path).cpu.usage_usec
            assert usage == pytest.approx(ent.allocated * 1e6, abs=1.0)
