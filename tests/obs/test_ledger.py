"""Ledger arithmetic, ``repro explain`` rendering and the CLI path."""

import pytest

from repro.cli import main
from repro.core.units import guaranteed_cycles
from repro.obs import ObsConfig, recompute_allocation
from repro.obs.jsonl import EventLog, read_jsonl
from repro.obs.ledger import (
    explain,
    explain_from_entries,
    lookup,
)
from tests.obs.conftest import drive_host

TICKS = 8


@pytest.fixture(scope="module")
def driven():
    _, ctrl, obs = drive_host(TICKS)
    return ctrl, obs


class TestLedgerArithmetic:
    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_recompute_is_bit_exact(self, engine):
        _, ctrl, obs = drive_host(TICKS, engine=engine)
        assert len(obs.ledger.records) == TICKS
        for entry in obs.ledger.records:
            p_us = entry["meta"]["p_us"]
            assert entry["decisions"], "busy host must enforce every tick"
            for d in entry["decisions"]:
                assert recompute_allocation(d, p_us) == d["allocation"]

    def test_ledger_matches_report_and_oracles(self):
        # The inline invariant catalogue independently recomputes the
        # same equations every tick; a clean armed run plus bit-exact
        # recompute means ledger and oracle arithmetic agree.
        _, ctrl, obs = drive_host(
            TICKS, config_overrides={"check_invariants": True}
        )
        assert ctrl.invariant_checker.violations_total == 0
        assert ctrl.invariant_checker.checks_total == TICKS
        for report, entry in zip(ctrl.reports, obs.ledger.records):
            recorded = {d["path"]: d["allocation"] for d in entry["decisions"]}
            assert recorded == report.allocations

    def test_eq2_guarantee_recorded(self, driven):
        ctrl, obs = driven
        cfg = ctrl.config
        for entry in obs.ledger.records:
            for d in entry["decisions"]:
                assert d["guarantee"] == guaranteed_cycles(
                    cfg.period_s, d["vfreq"], ctrl.fmax_mhz
                )

    def test_wallet_conservation_in_meta(self, driven):
        _, obs = driven
        prev = None
        for entry in obs.ledger.records:
            meta = entry["meta"]
            if prev is not None:
                assert meta["wallets_before"] == prev
            prev = meta["wallets_after"]

    def test_quota_us_matches_enforcer(self, driven):
        ctrl, obs = driven
        entry = obs.ledger.records[-1]
        for d in entry["decisions"]:
            assert d["quota_us"] == ctrl.enforcer.quota_us(d["allocation"])


class TestLookupAndExplain:
    def test_lookup_finds_every_decision(self, driven):
        _, obs = driven
        meta, d = lookup(obs.ledger, "vm-0", 1, 3)
        assert meta["tick"] == 3
        assert (d["vm"], d["vcpu"]) == ("vm-0", 1)

    def test_lookup_missing_returns_none(self, driven):
        _, obs = driven
        assert lookup(obs.ledger, "vm-0", 9, 3) is None
        assert lookup(obs.ledger, "nope", 0, 3) is None
        assert lookup(obs.ledger, "vm-0", 0, 999) is None

    def test_explain_renders_the_derivation(self, driven):
        _, obs = driven
        meta, d = lookup(obs.ledger, "vm-1", 0, 4)
        text = explain(meta, d)
        for marker in (
            "cpu.max derivation for vm-1/vcpu0 at tick 4",
            "[Eq. 3]", "[Eq. 2]", "[Eq. 5]", "[Alg. 1]", "[Eq. 6]",
            "stage 5  free dist",
            "cpu.max quota",
            "recomputed == recorded allocation (bit-exact)",
        ):
            assert marker in text

    def test_explain_flags_tampering(self, driven):
        _, obs = driven
        meta, d = lookup(obs.ledger, "vm-1", 0, 4)
        tampered = dict(d, allocation=d["allocation"] + 1.0)
        assert "MISMATCH" in explain(meta, tampered)

    def test_explain_from_entries_keyerror_names_window(self, driven):
        _, obs = driven
        with pytest.raises(KeyError, match=r"recorded ticks: 0\.\.7"):
            explain_from_entries(obs.ledger.records, "vm-0", 0, 999)

    def test_explain_from_entries_reads_a_generator_once(self, driven):
        """A one-shot iterable still names the recorded window."""
        _, obs = driven
        entries = (entry for entry in obs.ledger)
        with pytest.raises(KeyError, match=r"recorded ticks: 0\.\.7"):
            explain_from_entries(entries, "vm-0", 0, 999)


class TestPersistence:
    def test_ring_is_bounded(self):
        _, _, obs = drive_host(6, obs_config=ObsConfig(ledger_ring_ticks=4))
        ticks = [e["meta"]["tick"] for e in obs.ledger.records]
        assert ticks == [2, 3, 4, 5]

    def test_jsonl_mirror_round_trips(self, tmp_path):
        out = str(tmp_path / "obs")
        _, _, obs = drive_host(5, obs_config=ObsConfig(out_dir=out))
        obs.close()
        entries = read_jsonl(f"{out}/ledger.jsonl", kind="tick")
        assert entries == obs.ledger.records
        assert lookup(entries, "vm-0", 0, 2) == lookup(obs.ledger, "vm-0", 0, 2)

    def test_memory_only_ledger_has_no_file(self):
        ledger = EventLog(ring=8)
        ledger.append({"kind": "tick", "meta": {"tick": 0}, "decisions": []})
        assert ledger.path is None
        ledger.close()


class TestCli:
    @pytest.fixture(scope="class")
    def obs_dir(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("obs"))
        _, _, obs = drive_host(5, obs_config=ObsConfig(out_dir=out))
        obs.close()
        return out

    def test_explain_happy_path(self, obs_dir, capsys):
        rc = main([
            "explain", "--obs-dir", obs_dir,
            "--vm", "vm-0", "--vcpu", "0", "--tick", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cpu.max derivation for vm-0/vcpu0 at tick 3" in out
        assert "bit-exact" in out

    def test_explain_unknown_tick_fails(self, obs_dir, capsys):
        rc = main([
            "explain", "--obs-dir", obs_dir,
            "--vm", "vm-0", "--vcpu", "0", "--tick", "99",
        ])
        assert rc == 1
        assert "recorded ticks" in capsys.readouterr().err

    def test_explain_missing_ledger_fails(self, tmp_path, capsys):
        rc = main([
            "explain", "--obs-dir", str(tmp_path),
            "--vm", "v", "--vcpu", "0", "--tick", "0",
        ])
        assert rc == 2
