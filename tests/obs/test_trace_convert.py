"""Crash dump -> checking trace round trip, library and CLI."""

import os

import pytest

from repro.checking.invariants import InvariantViolationError
from repro.checking.trace import Trace, replay
from repro.cli import main
from repro.obs import FlightRecorder, ObsConfig, flight_dump_to_trace
from tests.obs.conftest import drive_host


@pytest.fixture(scope="module")
def dump_path(tmp_path_factory):
    """A real auto-dump: forced ledger tamper under the armed oracle."""
    out = str(tmp_path_factory.mktemp("obs"))
    node, ctrl, obs = drive_host(
        6,
        obs_config=ObsConfig(out_dir=out, tracing=False),
        config_overrides={"check_invariants": True},
    )
    ctrl.ledger.set_balance("vm-0", 1e12)
    node.step(1.0)
    with pytest.raises(InvariantViolationError):
        ctrl.tick(7.0)
    obs.close()
    (name,) = [f for f in os.listdir(out) if f.startswith("flight_")]
    return os.path.join(out, name)


class TestConversion:
    def test_events_reconstruct_the_scenario(self, dump_path):
        trace = flight_dump_to_trace(FlightRecorder.load(dump_path))
        assert trace.header["engine"] == "bulk"
        assert trace.header["cores"] == 4
        assert trace.header["threads_per_core"] == 1
        assert trace.ticks == 7  # 6 clean frames + the violating one
        provisions = [e for e in trace.events if e["kind"] == "provision"]
        assert {e["vm"] for e in provisions} == {"vm-0", "vm-1"}
        for e in trace.events:
            if e["kind"] == "demand":
                assert 0.0 <= e["level"] <= 1.0

    def test_converted_trace_replays_clean(self, dump_path):
        # The tamper poked controller state, not the scenario: the
        # reconstructed trace replays with every oracle silent.
        trace = flight_dump_to_trace(FlightRecorder.load(dump_path))
        result = replay(trace)
        assert result.ok, [str(v) for v in result.violations]
        assert result.ticks == trace.ticks

    def test_empty_dump_rejected(self):
        with pytest.raises(ValueError, match="no frames"):
            flight_dump_to_trace({
                "meta": {"period_s": 0.1, "num_cpus": 4, "fmax_mhz": 2400.0},
                "frames": [],
            })


class TestCli:
    def test_trace_convert_round_trip(self, dump_path, tmp_path, capsys):
        out = str(tmp_path / "repro.trace")
        rc = main(["trace", "convert", dump_path, "-o", out])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert out in stdout
        trace = Trace.load(out)
        assert trace.ticks == 7
        assert replay(trace).ok

    def test_trace_convert_missing_file(self, tmp_path, capsys):
        rc = main([
            "trace", "convert", str(tmp_path / "nope.json"),
            "-o", str(tmp_path / "out.trace"),
        ])
        assert rc == 2
        assert "no such flight dump" in capsys.readouterr().err
