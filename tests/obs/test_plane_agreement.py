"""The observer planes agree by construction.

The hub's decision ledger, the billing meter and the SLO plane all read
the rows :func:`repro.obs.ledger.decision_rows` builds, once per report.
A fuzz trace with degraded vCPUs (rows enforced without a fresh sample)
is replayed under both engines with all three planes attached; the SLO
plane's per-tenant guarantee counters must equal a count over the
ledger rows, and the rows must be built exactly once per report.
"""

from __future__ import annotations

import pytest

import repro.obs.ledger as ledger_module
from repro.billing import DEFAULT_PRICE_BOOK, BillingEngine
from repro.checking import audit_billing, generate_trace, replay
from repro.obs import ObsConfig, Observability
from repro.obs.slo import SLOConfig, SLOPlane
from repro.obs.tsdb import S_GUARANTEE_BAD, S_GUARANTEE_CHECKS

TICKS = 60
#: Fuzz seeds whose traces degrade vCPUs (110 and 20 degraded-only rows).
SEEDS = (0, 2)


def _replay_attached(seed: int, engine: str, monkeypatch):
    built = []
    build = ledger_module._build_rows

    def counting_build(controller, report):
        built.append(id(report))
        return build(controller, report)

    monkeypatch.setattr(ledger_module, "_build_rows", counting_build)
    hub = Observability(ObsConfig(
        tracing=False, flight_recorder_ticks=4, ledger_ring_ticks=TICKS + 1,
    ))
    billing = BillingEngine(DEFAULT_PRICE_BOOK)
    plane = SLOPlane(SLOConfig(wallclock=False))

    def attach(controller, _engine: str) -> None:
        hub.bind(controller)
        controller.obs = hub
        controller.billing = billing
        controller.slo = plane

    result = replay(
        generate_trace(seed, ticks=TICKS, tenants=2),
        engines=(engine,), stop_at_first=False, collect_reports=True,
        attach=attach,
    )
    assert result.violations == []
    return result.reports[engine], built, hub, billing, plane


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
@pytest.mark.parametrize("seed", SEEDS)
class TestPlanesAgree:
    def test_rows_built_once_per_report(self, seed, engine, monkeypatch):
        reports, built, *_ = _replay_attached(seed, engine, monkeypatch)
        assert len(reports) == TICKS
        assert sorted(built) == sorted(id(r) for r in reports)

    def test_ledger_rows_are_the_rows_every_plane_read(
        self, seed, engine, monkeypatch
    ):
        reports, _, hub, billing, _ = _replay_attached(seed, engine, monkeypatch)
        for report, entry in zip(reports, hub.ledger):
            assert entry["decisions"] is report._rows
        assert audit_billing(billing, hub.ledger.records) == []

    def test_tsdb_guarantee_counters_count_ledger_rows(
        self, seed, engine, monkeypatch
    ):
        _, _, hub, _, plane = _replay_attached(seed, engine, monkeypatch)
        checks, bad = {}, {}
        degraded_only = 0
        for entry in hub.ledger:
            tenants = entry["meta"]["tenants"]
            for d in entry["decisions"]:
                if d["consumed"] is None:
                    degraded_only += 1
                    continue  # no fresh sample: not a guarantee check
                g = d["guarantee"]
                if g is None:
                    continue
                tenant = tenants.get(d["vm"], "default")
                checks[tenant] = checks.get(tenant, 0) + 1
                est = d["estimate"]
                if d["allocation"] < g and (est is None or est >= g):
                    bad[tenant] = bad.get(tenant, 0) + 1
        assert degraded_only > 0  # the trace really degrades vCPUs
        assert checks
        for tenant, n in checks.items():
            labels = {"tenant": tenant}
            assert plane.store.get(S_GUARANTEE_CHECKS, labels).last == n
            assert plane.store.get(S_GUARANTEE_BAD, labels).last == \
                bad.get(tenant, 0)
