"""Tests for the multi-process (sharded) control plane.

Shard factories must be module-level callables (they cross the pickle
boundary into the worker); everything they build — nodes, VMs,
controllers, the pre-tick workload hook — lives only in the worker.
"""

import functools

import pytest

from repro.core.backend import BackendStats
from repro.sim.node_manager import (
    NodeManager,
    RemoteNodeError,
    Shard,
    ShardedNodeManager,
)
from repro.virt.template import SMALL
from tests.conftest import make_host


def _signature(report):
    """Everything one iteration decided, minus wall-clock timings."""
    return (
        report.t,
        tuple(report.samples),
        dict(report.decisions),
        dict(report.allocations),
        report.market_initial,
        report.auction,
        report.freely_distributed,
        dict(report.wallets),
    )


def _build_group(node_ids, seed0):
    """Deterministic node group: node k hosts k%2+1 VMs, seeded."""
    hosts = {}
    for k, node_id in enumerate(node_ids):
        node, hv, ctrl = make_host(seed=seed0 + k)
        for j in range(k % 2 + 1):
            vm = hv.provision(SMALL, f"{node_id}-vm-{j}")
            ctrl.register_vm(vm.name, SMALL.vfreq_mhz)
            vm.set_uniform_demand(0.6 + 0.2 * j)
        hosts[node_id] = (node, hv, ctrl)
    return hosts


def _shard_factory(node_ids, seed0):
    """(runs in-worker) Build a group and advance it before each tick."""
    hosts = _build_group(node_ids, seed0)

    def pre_tick(t):
        for node, _, _ in hosts.values():
            node.step(1.0)

    return Shard(
        {node_id: ctrl for node_id, (_, _, ctrl) in hosts.items()}, pre_tick
    )


class _CrashingController:
    """Minimal Controller whose every tick raises."""

    def register_vm(self, vm_name, vfreq_mhz):
        pass

    def unregister_vm(self, vm_name):
        pass

    def tick(self, t):
        raise RuntimeError(f"injected node failure at t={t}")


def _mixed_shard_factory(seed0):
    """(runs in-worker) One healthy node plus one that always crashes."""
    hosts = _build_group(["ok-node"], seed0)

    def pre_tick(t):
        for node, _, _ in hosts.values():
            node.step(1.0)

    controllers = {"ok-node": hosts["ok-node"][2], "bad-node": _CrashingController()}
    return Shard(controllers, pre_tick)


_SHARDS = {
    "shard-0": functools.partial(_shard_factory, ("node-a", "node-b"), 7),
    "shard-1": functools.partial(_shard_factory, ("node-c",), 9),
}


def _assert_matches_in_process(sharded, ref):
    """Every node's fetched report, and the summed backend counters,
    are bit-identical to the in-process manager ``ref``."""
    sharded_ids = {n for ids in sharded.nodes_by_shard.values() for n in ids}
    assert sharded_ids == set(ref.last_reports)
    for node_id, expected in ref.last_reports.items():
        assert _signature(sharded.fetch_report(node_id)) == _signature(expected)
    assert sharded.backend_stats() == ref.backend_stats()


class TestShardedParity:
    def test_sharded_matches_threaded(self):
        """The same three nodes, split over two worker processes,
        report exactly what the in-process serial manager reports."""
        ref_hosts = {
            **_build_group(["node-a", "node-b"], 7),
            **_build_group(["node-c"], 9),
        }
        ref = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in ref_hosts.items()}
        )
        with ShardedNodeManager(_SHARDS) as sharded:
            assert sharded.num_nodes == 3
            assert sharded.num_shards == 2
            assert sharded.shard_of("node-c") == "shard-1"
            for k in range(4):
                for node, _, _ in ref_hosts.values():
                    node.step(1.0)
                ref.tick(float(k + 1))
                got = sharded.tick(float(k + 1))
                assert not got.errors
                _assert_matches_in_process(sharded, ref)
            assert sharded.aggregate_timings().total > 0

    def test_unknown_node_rejected(self):
        with ShardedNodeManager(_SHARDS) as sharded:
            with pytest.raises(KeyError):
                sharded.shard_of("node-z")

    def test_empty_shard_map_rejected(self):
        with pytest.raises(ValueError):
            ShardedNodeManager({})


class TestShardedFaultIsolation:
    def test_node_failure_contained_in_shard(self):
        """A crashing node surfaces as RemoteNodeError while its shard
        sibling and the other shard keep reporting."""
        shards = {
            "shard-0": functools.partial(_mixed_shard_factory, 21),
            "shard-1": functools.partial(_shard_factory, ("node-c",), 9),
        }
        with ShardedNodeManager(shards) as sharded:
            result = sharded.tick(1.0)
            assert set(result.errors) == {"bad-node"}
            assert sharded.fetch_report("ok-node") is not None
            assert sharded.fetch_report("node-c") is not None
            assert sharded.fetch_report("bad-node") is None
            err = result.errors["bad-node"]
            assert isinstance(err, RemoteNodeError)
            assert err.exc_type == "RuntimeError"
            assert "injected node failure" in str(err)
            assert sharded.error_counts["bad-node"] == 1
            result = sharded.tick(2.0)
            assert sharded.error_counts["bad-node"] == 2

    def test_restart_shard_rebuilds_worker(self):
        with ShardedNodeManager(_SHARDS) as sharded:
            first = sharded.tick(1.0)
            assert not first.errors
            sharded.restart_shard("shard-1")
            result = sharded.tick(2.0)
            assert not result.errors
            # The rebuilt shard starts from its factory state again:
            # tick 2 on a fresh controller is its warmup iteration.
            assert sharded.fetch_report("node-c").t == 2.0


class TestShardedStats:
    def test_stats_accumulate(self):
        with ShardedNodeManager(
            {"s0": functools.partial(_shard_factory, ("node-a",), 7)}
        ) as sharded:
            sharded.tick(1.0)
            one = sharded.backend_stats()
            sharded.tick(2.0)
            two = sharded.backend_stats()
            assert isinstance(one, BackendStats)
            assert two.fs_reads > one.fs_reads
            checks, violations = sharded.invariant_totals()
            assert violations == 0
