"""The hard transparency contract: billing never perturbs control.

A 50-tick fuzzed multi-tenant scenario (VM churn, renegotiation,
bursts, restarts) is replayed twice under all three engines — once
with only the decision ledger attached, once with ledger + billing —
and every report stream and every ledger entry must be bit-identical.
Metering is post-hoc observation; turning it on must be invisible to
the controller, to tenants' allocations, and to the audit record.
"""

import json

from repro.checking import generate_trace, replay, replay_with_billing
from repro.checking.trace import ENGINES, _compare_reports
from repro.obs.config import ObsConfig
from repro.obs.hub import Observability


def _ledgered_replay(trace, engines):
    """Replay with ledger-only hubs attached — billing off."""
    hubs = {}
    ring_ticks = max(trace.ticks, 1) + 1

    def attach_hub(controller, engine):
        hub = hubs.get(engine)
        if hub is None:
            hub = hubs[engine] = Observability(ObsConfig(
                tracing=False, ledger=True, flight_recorder_ticks=0,
                ledger_ring_ticks=ring_ticks,
            ))
        hub.bind(controller)
        controller.obs = hub

    result = replay(trace, engines=engines, stop_at_first=False,
                    collect_reports=True, attach=attach_hub)
    return result, hubs


class TestBillingTransparency:
    def test_reports_and_ledgers_bit_identical_across_engines(self):
        trace = generate_trace(5, ticks=50, tenants=3)
        off, off_hubs = _ledgered_replay(trace, ENGINES)
        on = replay_with_billing(trace, engines=ENGINES,
                                 collect_reports=True)
        assert off.ok
        assert on.replay.ok
        assert on.violations == []
        for engine in ENGINES:
            # report streams: field-for-field identical, every tick
            reports_off = off.reports[engine]
            reports_on = on.replay.reports[engine]
            assert len(reports_off) == len(reports_on) == off.ticks
            for t, (a, b) in enumerate(zip(reports_off, reports_on),
                                       start=1):
                assert _compare_reports(
                    a, b, (f"{engine}-off", f"{engine}-on"), float(t)
                ) == []
            # ledger streams: JSON-canonical lines identical
            lines_off = [json.dumps(e, sort_keys=True)
                         for e in off_hubs[engine].ledger.records]
            lines_on = [json.dumps(e, sort_keys=True)
                        for e in on.ledgers[engine]]
            assert lines_off == lines_on
        # transparency, not absence: billing really metered revenue
        assert any(on.billing[e].meter.usage for e in ENGINES)

    def test_tenant_metadata_recorded_with_billing_off(self):
        """The ledger's tenant map is part of the audit record whether
        or not a billing engine is attached — so a later offline
        ``bill derive`` over an archived ledger still attributes
        correctly."""
        trace = generate_trace(5, ticks=10, tenants=2)
        _, hubs = _ledgered_replay(trace, ("scalar",))
        entries = hubs["scalar"].ledger.records
        assert entries
        tenant_maps = [e["meta"].get("tenants") for e in entries]
        assert all(m is not None for m in tenant_maps)
        assert any(m for m in tenant_maps)  # non-empty once VMs exist
