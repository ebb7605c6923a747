"""JSONL mirrors cut inside their last record still load.

A crash mid-append leaves one unterminated, unparsable final line.  The
three ledgers and the span file all read through
``repro.obs.jsonl.read_jsonl``: it drops that line, counts it, and still
raises on a bad line anywhere else.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import ObsConfig
from repro.obs.jsonl import EventLog, read_jsonl
from repro.obs.tracing import JsonlSink, Tracer, spans_from_jsonl
from tests.obs.conftest import drive_host


def tear_last_record(path: str) -> None:
    """Cut the file halfway through its last line, as a crash would."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    with open(path, "wb") as fh:
        fh.write(data[: start + (len(data) - start) // 2])


def _decision_mirror(tmp_path) -> str:
    out = str(tmp_path / "obs")
    _, _, obs = drive_host(5, obs_config=ObsConfig(out_dir=out))
    obs.close()
    return out


class TestTornLastLine:
    def test_decision_ledger(self, tmp_path):
        path = f"{_decision_mirror(tmp_path)}/ledger.jsonl"
        whole = read_jsonl(path, kind="tick")
        tear_last_record(path)
        torn = read_jsonl(path, kind="tick")
        assert torn == whole[:-1]
        assert (whole.dropped, torn.dropped) == (0, 1)

    def test_rebalance_ledger(self, tmp_path):
        path = str(tmp_path / "rebalance.jsonl")
        ledger = EventLog(path=path)
        for k in range(3):
            ledger.append({"kind": "round", "meta": {"round": k, "t": float(k)}, "moves": []})
        ledger.close()
        tear_last_record(path)
        entries = read_jsonl(path, kind="round")
        assert [e["meta"]["round"] for e in entries] == [0, 1]
        assert entries.dropped == 1

    def test_alert_ledger(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        ledger = EventLog(path=path)
        for k in range(3):
            ledger.append({"kind": "alert", "k": k})
        ledger.close()
        tear_last_record(path)
        entries = read_jsonl(path, kind="alert")
        assert [e["k"] for e in entries] == [0, 1]
        assert entries.dropped == 1

    def test_span_file(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer([sink])
        for k in range(3):
            tracer.record("s", trace_id=k, parent_id=None, start_us=0.0, duration_us=1.0)
        sink.close()
        tear_last_record(path)
        spans = spans_from_jsonl(path)
        assert [s.trace_id for s in spans] == [0, 1]
        assert spans.dropped == 1


class TestCorruptionStillRaises:
    def test_bad_line_mid_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"kind": "alert"}\n{"kind": "al\n{"kind": "alert"}\n')
        with pytest.raises(ValueError, match=r"x\.jsonl:2"):
            read_jsonl(str(path))

    def test_bad_but_terminated_last_line(self, tmp_path):
        """A complete line that does not parse was written whole: not a
        torn append."""
        path = tmp_path / "x.jsonl"
        path.write_text('{"kind": "alert"}\nnot json\n')
        with pytest.raises(ValueError, match=r"x\.jsonl:2"):
            read_jsonl(str(path))

    def test_clean_file_drops_nothing(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(json.dumps({"kind": "alert"}) + "\n\n")
        records = read_jsonl(str(path), kind="alert")
        assert records == [{"kind": "alert"}]
        assert records.dropped == 0


class TestExplainAfterCrash:
    def test_explain_vm_on_truncated_decision_ledger(self, tmp_path, capsys):
        out = _decision_mirror(tmp_path)
        tear_last_record(f"{out}/ledger.jsonl")
        rc = main(["explain", "--obs-dir", out, "--vm", "vm-0", "--vcpu", "0", "--tick", "3"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "cpu.max derivation for vm-0/vcpu0 at tick 3" in captured.out
        assert "dropped 1 torn final line" in captured.err

    def test_the_torn_tick_itself_is_reported_missing(self, tmp_path, capsys):
        out = _decision_mirror(tmp_path)
        tear_last_record(f"{out}/ledger.jsonl")
        rc = main(["explain", "--obs-dir", out, "--vm", "vm-0", "--vcpu", "0", "--tick", "4"])
        assert rc == 1
        assert "recorded ticks: 0..3" in capsys.readouterr().err
