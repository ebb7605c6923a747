"""Rebalance ledger: event-log ring, JSONL mirror, lookup and explain
rendering."""

import json

import pytest

from repro.obs.jsonl import EventLog, read_jsonl
from repro.rebalance.ledger import (
    explain_move,
    explain_move_from_entries,
    lookup_move,
)


def round_entry(round_no, moves):
    meta = {
        "round": round_no, "t": float(round_no * 5), "seed": round_no,
        "pressure_before_mhz": 2400.0, "pressure_after_mhz": 0.0,
        "fragmentation_before": 0.1, "n_moves": len(moves),
    }
    return meta, moves


def round_record(round_no, moves):
    meta, moves = round_entry(round_no, moves)
    return {"kind": "round", "meta": meta, "moves": moves}


def move_record(vm="vm-1", reason="pressure", executed=True):
    record = {
        "vm": vm, "source": "n0", "target": "n1", "reason": reason,
        "demand_mhz": 2400.0, "memory_mb": 4096, "transfer_s": 4.26,
        "downtime_s": 0.5, "cost_s": 4.76, "relief_mhz": 2400.0,
        "score": 504.2, "target_headroom_after_mhz": 1200.0,
        "executed": executed,
    }
    if not executed:
        record["reject_reason"] = "target vanished"
    return record


class TestLedger:
    def test_ring_is_bounded(self):
        ledger = EventLog(ring=3)
        for i in range(5):
            ledger.append(round_record(i, []))
        rounds = [e["meta"]["round"] for e in ledger.records]
        assert rounds == [2, 3, 4]

    def test_jsonl_mirror_round_trips(self, tmp_path):
        path = str(tmp_path / "rebalance.jsonl")
        ledger = EventLog(path=path)
        ledger.append(round_record(0, [move_record()]))
        ledger.append(round_record(1, []))
        ledger.close()
        entries = read_jsonl(path, kind="round")
        assert len(entries) == 2
        assert entries[0]["moves"][0]["vm"] == "vm-1"

    def test_loader_skips_foreign_and_blank_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        meta, moves = round_entry(0, [])
        path.write_text(
            json.dumps({"kind": "decision", "vm": "x"}) + "\n\n"
            + json.dumps({"kind": "round", "meta": meta, "moves": moves})
            + "\n"
        )
        entries = read_jsonl(str(path), kind="round")
        assert len(entries) == 1

    def test_lookup_returns_latest_match(self):
        ledger = EventLog()
        ledger.append(round_record(0, [move_record()]))
        ledger.append(round_record(7, [move_record()]))
        meta, move = lookup_move(ledger, "vm-1")
        assert meta["round"] == 7

    def test_lookup_can_pin_a_round(self):
        ledger = EventLog()
        ledger.append(round_record(0, [move_record()]))
        ledger.append(round_record(7, [move_record()]))
        meta, _ = lookup_move(ledger, "vm-1", round_no=0)
        assert meta["round"] == 0
        assert lookup_move(ledger, "vm-1", round_no=3) is None

    def test_lookup_unknown_vm(self):
        assert lookup_move([], "ghost") is None


class TestExplain:
    def test_rendering_contains_full_derivation(self):
        meta, moves = round_entry(4, [move_record()])
        text = explain_move(meta, moves[0])
        assert "round 4" in text
        assert "goal      pressure" in text
        assert "smallest VM covering the Eq. 7 deficit" in text
        assert "best-fit, Eq. 7-admissible" in text
        assert "4.260 s transfer + 0.500 s stop-and-copy" in text
        assert "blackout on n0+n1" in text

    def test_rejected_move_rendered_as_not_executed(self):
        meta, moves = round_entry(0, [move_record(executed=False)])
        text = explain_move(meta, moves[0])
        assert "NOT executed: target vanished" in text

    def test_from_entries_raises_with_hint(self):
        meta, moves = round_entry(2, [move_record(vm="vm-9")])
        entries = [{"kind": "round", "meta": meta, "moves": moves}]
        with pytest.raises(KeyError, match="vm-9"):
            explain_move_from_entries(entries, "ghost")

    def test_from_entries_renders_match(self):
        meta, moves = round_entry(2, [move_record(vm="vm-9")])
        entries = [{"kind": "round", "meta": meta, "moves": moves}]
        assert "vm-9" in explain_move_from_entries(entries, "vm-9")
