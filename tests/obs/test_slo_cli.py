"""CLI coverage: ``repro slo``, ``repro explain --alert``, and the
SLO/billing/rebalance composition behind ``repro serve-metrics``."""

import json
import os

import pytest

import repro.cli
import repro.obs.slo
from repro.cli import main
from repro.obs.slo import SLOConfig, SLOPlane
from repro.obs.tsdb import (
    S_CREDITS_USD,
    S_GUARANTEE_BAD,
    S_GUARANTEE_CHECKS,
    S_REVENUE_USD,
)


@pytest.fixture
def cluster_capture(monkeypatch):
    """Record the SLO plane and node manager a cluster command builds."""
    seen = {"planes": [], "managers": []}

    class RecordingPlane(SLOPlane):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen["planes"].append(self)

    real_demo_cluster = repro.cli._demo_cluster

    def demo_cluster(*args, **kwargs):
        manager, cluster_vms = real_demo_cluster(*args, **kwargs)
        seen["managers"].append(manager)
        return manager, cluster_vms

    monkeypatch.setattr(repro.obs.slo, "SLOPlane", RecordingPlane)
    monkeypatch.setattr(repro.cli, "_demo_cluster", demo_cluster)
    return seen


def assert_plane_sees_every_meter(seen):
    """Each node's revenue / SLA-credit counter in the plane equals the
    sum of that node's metered ticks, in tick order."""
    (plane,) = seen["planes"]
    (manager,) = seen["managers"]
    revenue_seen = 0.0
    for node_id, ctrl in sorted(manager.controllers.items()):
        meter = ctrl.billing.meter
        for series, per_tick in ((S_REVENUE_USD, meter.tick_revenue),
                                 (S_CREDITS_USD, meter.tick_credits)):
            expected = 0.0
            for tick in sorted(per_tick):
                expected += per_tick[tick]
            assert plane.store.get(series, {"node": node_id}).last == expected
        revenue_seen += plane.store.get(S_REVENUE_USD, {"node": node_id}).last
    assert revenue_seen > 0.0


class TestSloEval:
    def test_green_run_with_artefacts(self, tmp_path, capsys):
        out_dir = tmp_path / "slo-artefacts"
        rc = main(["slo", "eval", "--seeds", "1", "--ticks", "25",
                   "--engine", "scalar", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 0:" in out
        assert "alert transition(s)" in out
        assert "checks: cross-engine, replay-determinism, transparency" in out
        assert "[ok]" in out
        assert (out_dir / "alerts_seed0.jsonl").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["failures"] == 0
        assert summary["seeds"][0]["engines"] == ["scalar"]
        assert summary["seeds"][0]["problems"] == []

    def test_fault_seed_yields_alert_traffic(self, tmp_path, capsys):
        """Seed 0 x 80 ticks includes a fault plan that actually fires
        alerts — the ledger artefact carries real transitions that
        round-trip through the JSON stream."""
        out_dir = tmp_path / "out"
        rc = main(["slo", "eval", "--seeds", "1", "--ticks", "80",
                   "--engine", "scalar", "--no-determinism",
                   "--no-transparency", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks: cross-engine" in out
        lines = (out_dir / "alerts_seed0.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert entry["state"] in ("firing", "resolved")
            assert entry["severity"] in ("page", "ticket")
            assert entry["tick"] >= 1


class TestSloWatch:
    def test_dashboard_and_ledger(self, tmp_path, capsys):
        out_dir = tmp_path / "watch"
        rc = main(["slo", "watch", "--nodes", "2", "--vms", "2",
                   "--ticks", "12", "--every", "6", "--seed", "42",
                   "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SLO dashboard @ tick 6" in out
        assert "SLO dashboard @ tick 12" in out
        assert "guarantee" in out and "tick_deadline" in out
        assert "budget left" in out
        assert "alert ledger:" in out
        assert (out_dir / "alerts.jsonl").exists()

    def test_plane_sees_each_nodes_meter_totals(self, cluster_capture, capsys):
        rc = main(["slo", "watch", "--nodes", "2", "--vms", "2",
                   "--ticks", "6", "--every", "6", "--seed", "42"])
        capsys.readouterr()
        assert rc == 0
        assert_plane_sees_every_meter(cluster_capture)


def _write_ledger(out_dir):
    """A plane with one page-worthy guarantee burn, ledger on disk."""
    plane = SLOPlane(SLOConfig(wallclock=False, anomaly=None,
                               out_dir=str(out_dir)))
    for tick in range(1, 11):
        plane.store.accumulate(S_GUARANTEE_BAD, 5.0, {"tenant": "t0"})
        plane.store.accumulate(S_GUARANTEE_CHECKS, 10.0, {"tenant": "t0"})
        plane.evaluate(tick, t=float(tick))
    plane.close()
    assert os.path.exists(os.path.join(str(out_dir), "alerts.jsonl"))


class TestExplainAlert:
    def test_rederivation_from_obs_dir(self, tmp_path, capsys):
        _write_ledger(tmp_path)
        rc = main(["explain", "--alert", "guarantee",
                   "--obs-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "guarantee" in out
        assert "burn" in out
        assert "MISMATCH" not in out

    def test_unknown_slo_lists_recorded_names(self, tmp_path, capsys):
        _write_ledger(tmp_path)
        rc = main(["explain", "--alert", "nope", "--obs-dir",
                   str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "guarantee" in err  # the recorded names are suggested

    def test_missing_ledger_is_usage_error(self, tmp_path, capsys):
        rc = main(["explain", "--alert", "guarantee",
                   "--obs-dir", str(tmp_path / "empty")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no alert ledger" in err


class TestServeMetricsComposition:
    @staticmethod
    def _families(out):
        for line in out.splitlines():
            if "self-test ok" in line:
                return int(line.split("families")[0].split(",")[-1].strip())
        raise AssertionError(f"no self-test verdict in: {out!r}")

    def test_self_test_single_node(self, capsys):
        """rc 0 means the in-command assertions saw every SLO, billing
        and controller family on the scrape; 17 families total."""
        rc = main(["serve-metrics", "--self-test"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-test ok" in out
        assert self._families(out) == 17

    def test_self_test_cluster_mode(self, capsys):
        """Cluster mode folds rebalance + per-node billing families on
        top of the single-node set."""
        rc = main(["serve-metrics", "--self-test", "--cluster", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-test ok" in out
        assert self._families(out) > 17

    def test_cluster_plane_sees_each_nodes_meter_totals(
        self, cluster_capture, capsys
    ):
        rc = main(["serve-metrics", "--self-test", "--cluster", "2",
                   "--ticks", "6"])
        capsys.readouterr()
        assert rc == 0
        assert_plane_sees_every_meter(cluster_capture)
