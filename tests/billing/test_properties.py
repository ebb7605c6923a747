"""Hypothesis properties of the billing engine on live hosts.

Three contracts over arbitrary tenanted, Eq. 7-admissible fleets and
both hot-path engines:

* **oracle silence** — the ledger-derived audit never disagrees with
  the live meter on an honest controller;
* **revenue conservation** — the per-tenant invoices partition the
  metered revenue exactly (``math.fsum`` over the same atoms), credits
  and usage are non-negative, and the per-tick trail sums to the same
  total;
* **meter additivity** — a ``state_json``/``load_state`` round-trip
  mid-run leaves the final accumulators bit-identical to an
  uninterrupted run (the snapshot/restore contract).

CI pins ``--hypothesis-seed=0`` so any red run reproduces locally.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.billing import BillingEngine
from repro.checking import audit_billing
from repro.core.config import ControllerConfig
from repro.obs import ObsConfig, Observability
from repro.sim.engine import Simulation
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import make_host
from tests.strategies import engines, vm_fleets

TENANTS = ("acme", "globex", "initech")


def run_billed_host(fleet, seconds=10.0, engine="bulk",
                    roundtrip_at=None):
    """A metered mini-host: fleet of (level, vfreq, tenant) triples.

    ``roundtrip_at`` splits the run and snapshots the meter through a
    JSON round-trip into a fresh engine at the split point.
    """
    config = ControllerConfig.paper_evaluation(engine=engine)
    node, hv, ctrl = make_host(config=config)
    hub = Observability(ObsConfig(
        tracing=False, ledger=True, flight_recorder_ticks=0,
        ledger_ring_ticks=512,
    ))
    hub.bind(ctrl)
    ctrl.obs = hub
    bill = BillingEngine.attach(ctrl, node_id="prop-host")
    for k, (level, vfreq, tenant) in enumerate(fleet):
        template = VMTemplate(f"t{k}", vcpus=1, vfreq_mhz=vfreq,
                              tenant=tenant)
        vm = hv.provision(template, f"vm-{k}")
        ctrl.register_vm(vm.name, vfreq, tenant=tenant)
        attach(vm, ConstantWorkload(1, level=level))
    sim = Simulation(node, hv, controller=ctrl, dt=0.5)
    if roundtrip_at is None:
        sim.run(seconds)
    else:
        sim.run(roundtrip_at)
        clone = BillingEngine(bill.book, node_id=bill.node_id)
        clone.load_state(json.loads(bill.state_json()))
        ctrl.billing = clone
        bill = clone
        sim.run(seconds - roundtrip_at)
    return ctrl, hub, bill


class TestOracleSilence:
    @given(fleet=vm_fleets(tenants=TENANTS), engine=engines)
    @settings(max_examples=10, deadline=None)
    def test_oracle_certifies_every_admissible_fleet(self, fleet, engine):
        _, hub, bill = run_billed_host(fleet, engine=engine)
        assert audit_billing(bill, hub.ledger.records) == []


class TestRevenueConservation:
    @given(fleet=vm_fleets(tenants=TENANTS), engine=engines)
    @settings(max_examples=10, deadline=None)
    def test_invoices_partition_metered_revenue_exactly(self, fleet, engine):
        _, _, bill = run_billed_host(fleet, engine=engine)
        invoices = bill.invoices()
        line_amounts = [l.amount for inv in invoices for l in inv.lines]
        # fsum is correctly rounded, hence order-independent: the sum
        # of the per-tenant invoices IS the sum over all metered cells.
        assert math.fsum(line_amounts) == math.fsum(
            cell[2] for cell in bill.meter.usage.values()
        )
        credit_amounts = [c.amount for inv in invoices
                          for c in inv.credit_lines]
        assert math.fsum(credit_amounts) == math.fsum(
            cell[2] for cell in bill.meter.credits.values()
        )
        for inv in invoices:
            assert inv.total == inv.revenue - inv.sla_credits
        # the per-tick trail accounts for the same revenue (different
        # accumulation order, so approx not exact)
        assert math.fsum(bill.meter.tick_revenue.values()) == pytest.approx(
            math.fsum(line_amounts), rel=1e-9, abs=1e-12
        )
        # every metered tenant gets exactly one invoice
        metered = {k[0] for k in bill.meter.usage}
        metered |= {k[0] for k in bill.meter.credits}
        assert sorted(metered) == [inv.tenant for inv in invoices]

    @given(fleet=vm_fleets(tenants=TENANTS), engine=engines)
    @settings(max_examples=10, deadline=None)
    def test_usage_and_credits_nonnegative(self, fleet, engine):
        _, _, bill = run_billed_host(fleet, engine=engine)
        for cell in bill.meter.usage.values():
            assert all(v >= 0.0 for v in cell)
        for cell in bill.meter.credits.values():
            assert all(v >= 0.0 for v in cell)
        assert all(v >= 0.0 for v in bill.meter.tick_revenue.values())
        assert all(v >= 0.0 for v in bill.meter.tick_credits.values())


class TestMeterAdditivity:
    @given(
        fleet=vm_fleets(tenants=TENANTS),
        engine=engines,
        cut=st.sampled_from((3.0, 5.0, 7.0)),
    )
    @settings(max_examples=8, deadline=None)
    def test_snapshot_restore_roundtrip_is_bit_identical(
        self, fleet, engine, cut
    ):
        _, _, uninterrupted = run_billed_host(fleet, engine=engine)
        _, _, roundtripped = run_billed_host(
            fleet, engine=engine, roundtrip_at=cut
        )
        assert roundtripped.state_json() == uninterrupted.state_json()
