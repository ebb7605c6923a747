"""The SLO plane is a pure observer, and its alerts are deterministic.

Two contracts, both PR-5-style hard gates:

* **transparency** — report streams are bit-identical with the plane
  (and a billing engine feeding its credit SLO) attached or detached,
  on all three engines;
* **determinism** — replaying the identical fuzz trace twice produces
  byte-identical serialized alert ledgers under the deterministic
  profile (``wallclock=False``), and every engine produces the same
  stream.
"""

import json
import random

import pytest

from repro.billing import DEFAULT_PRICE_BOOK, BillingEngine
from repro.checking import generate_trace
from repro.checking.trace import ENGINES, _compare_reports, replay
from repro.core.config import ControllerConfig
from repro.obs.slo import SLOConfig, SLOPlane
from repro.virt.template import VMTemplate
from tests.conftest import make_host

TICKS = 12


def run(engine, attach_plane):
    config = ControllerConfig.paper_evaluation(engine=engine)
    node, hv, ctrl = make_host(config=config)
    vms = []
    for k in range(3):
        vfreq = 500.0 + 200.0 * k
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq),
                          f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq, tenant=f"tenant-{k % 2}")
        vms.append(vm)
    plane = None
    if attach_plane:
        BillingEngine.attach(ctrl)
        plane = SLOPlane.attach(ctrl)
    rng = random.Random(99)
    for t in range(TICKS):
        for vm in vms:
            vm.set_uniform_demand(rng.random())
        node.step(1.0)
        ctrl.tick(float(t))
    return ctrl, plane


@pytest.mark.parametrize("engine", list(ENGINES))
def test_reports_identical_with_and_without_plane(engine):
    bare, _ = run(engine, attach_plane=False)
    observed, plane = run(engine, attach_plane=True)
    # The plane really ingested: per-tenant guarantee counters exist
    # and every tick was evaluated.
    assert plane.last_tick == TICKS - 1
    assert plane.store.get(
        "guarantee_checks_total", {"tenant": "tenant-0"}
    ).total == TICKS
    for t, (a, b) in enumerate(zip(bare.reports, observed.reports)):
        diffs = _compare_reports(a, b, ("bare", "slo"), float(t))
        assert diffs == [], [str(v) for v in diffs]
        assert a.allocations == b.allocations
        assert a.free_shares == b.free_shares
        assert [s.consumed_cycles for s in a.samples] == [
            s.consumed_cycles for s in b.samples
        ]


def test_config_attached_plane_is_wired_and_transparent():
    from repro.obs import ObsConfig

    bare, _ = run("bulk", attach_plane=False)
    config = ControllerConfig.paper_evaluation(
        engine="bulk",
        observability=ObsConfig(slo=SLOConfig()),
    )
    node, hv, ctrl = make_host(config=config)
    assert ctrl.slo is not None  # declarative wiring worked
    vms = []
    for k in range(3):
        vfreq = 500.0 + 200.0 * k
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq),
                          f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq, tenant=f"tenant-{k % 2}")
        vms.append(vm)
    rng = random.Random(99)
    for t in range(TICKS):
        for vm in vms:
            vm.set_uniform_demand(rng.random())
        node.step(1.0)
        ctrl.tick(float(t))
    assert ctrl.slo.last_tick == TICKS - 1
    for t, (a, b) in enumerate(zip(bare.reports, ctrl.reports)):
        assert _compare_reports(a, b, ("bare", "configured"), float(t)) == []


def _replay_with_plane(trace, engines):
    """One attached replay; returns (result, planes-by-engine)."""
    planes = {}
    billing = {}

    def attach(controller, engine):
        bill = billing.get(engine)
        if bill is None:
            bill = billing[engine] = BillingEngine(DEFAULT_PRICE_BOOK)
        controller.billing = bill
        plane = planes.get(engine)
        if plane is None:
            plane = planes[engine] = SLOPlane(SLOConfig(wallclock=False))
        controller.slo = plane

    result = replay(trace, engines=engines, stop_at_first=False,
                    collect_reports=True, attach=attach)
    return result, planes


def _stream(plane):
    return "\n".join(
        json.dumps(t, sort_keys=True) for t in plane.ledger.records
    )


class TestAlertDeterminism:
    """Seed 0's fuzz trace (fault plan included) produces real alert
    traffic; the stream must be reproducible byte for byte."""

    ENGINES_UNDER_TEST = ("scalar", "bulk")

    @pytest.fixture(scope="class")
    def fuzz_run(self):
        trace = generate_trace(0, ticks=80, tenants=3)
        return trace, _replay_with_plane(trace, self.ENGINES_UNDER_TEST)

    def test_trace_produces_alert_traffic(self, fuzz_run):
        _, (result, planes) = fuzz_run
        assert not result.violations
        assert planes["scalar"].ledger.records  # non-trivial gate

    def test_streams_identical_across_engines(self, fuzz_run):
        _, (_, planes) = fuzz_run
        streams = {e: _stream(p) for e, p in planes.items()}
        assert streams["bulk"] == streams["scalar"]

    def test_replaying_twice_is_byte_identical(self, fuzz_run):
        trace, (_, first) = fuzz_run
        _, second = _replay_with_plane(trace, ("bulk",))
        assert _stream(second["bulk"]) == _stream(first["bulk"])

    def test_attached_replay_reports_match_detached(self, fuzz_run):
        trace, (attached, _) = fuzz_run
        detached = replay(trace, engines=("bulk",),
                          stop_at_first=False, collect_reports=True)
        pairs = zip(attached.reports["bulk"],
                    detached.reports["bulk"])
        for tick, (a, b) in enumerate(pairs, 1):
            assert _compare_reports(
                a, b, ("slo", "bare"), float(tick)
            ) == []
