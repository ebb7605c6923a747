"""The benchmark's own tests: every workload at a tiny size.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root
of the repository (the tier-1 suite collects ``tests/`` only).
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import RawSpan, attributed_times, export_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("host-dense", "cluster-wide", "fleet-churn")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, tmp_path, workload, seed, trace):
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny", "--out-dir", str(tmp_path),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1])


def deterministic(result):
    """Metrics that must repeat exactly for one seed (no wall time)."""
    return {
        name: m["value"] for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio") and not name.startswith("trace.")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(capsys, tmp_path, workload, trace):
    result = bench(capsys, tmp_path, workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= run.MIN_COVERAGE
        assert (tmp_path / f"{workload}-seed3-trace1.perfetto.json").exists()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_audited_metrics_repeat_per_seed_and_move_with_it(capsys, tmp_path, workload):
    first = bench(capsys, tmp_path, workload, 5, 1)
    again = bench(capsys, tmp_path, workload, 5, 1)
    other = bench(capsys, tmp_path, workload, 6, 1)
    assert deterministic(first) == deterministic(again)
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])
    miss = "guarantee_miss_ratio"
    assert first["metrics"][miss]["value"] != other["metrics"][miss]["value"]


def test_report_gate_trips_on_one_ulp(monkeypatch):
    import workloads
    from gate import GateFailure

    real = workloads.HostDense.latest_reports

    def perturbed(self):
        reports = real(self)
        if self.engine is None and self.periods_run == 3:
            report = copy.copy(reports["host"])
            path = sorted(report.allocations)[0]
            report.allocations = dict(report.allocations)
            report.allocations[path] = math.nextafter(report.allocations[path], math.inf)
            reports = {"host": report}
        return reports

    clean = workloads.HostDense(1, tiny=True)
    clean.setup()
    clean.gate()  # the unperturbed stream passes
    clean.close()

    monkeypatch.setattr(workloads.HostDense, "latest_reports", perturbed)
    broken = workloads.HostDense(1, tiny=True)
    broken.setup()
    with pytest.raises(GateFailure, match="allocations"):
        broken.gate()


def test_command_exits_nonzero_without_result_when_gate_fails(monkeypatch, capsys, tmp_path):
    import gate

    def always_differs(a, b):
        return ["allocations"]

    monkeypatch.setattr(gate, "report_diff", always_differs)
    code = run.main([
        "--workload", "host-dense", "--seed", "1", "--seconds", "0",
        "--trace", "0", "--tiny", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 3
    assert '"metrics"' not in out


def test_plan_gate_trips_on_a_changed_plan():
    import workloads
    from gate import GateFailure, PlanOracleGate

    fleet = workloads.FleetChurn(1, tiny=True)
    fleet.setup()
    gate = PlanOracleGate(fleet.cluster, fleet.loop)
    view = fleet.cluster.rebalance_view()
    plan = fleet.loop.planner.plan(fleet.cluster.rebalance_arrays(), seed=4)
    gate.verify(plan, view, seed=4)  # the real plan passes
    plan.pressure_after_mhz += 1.0
    with pytest.raises(GateFailure, match="differs"):
        gate.verify(plan, view, seed=4)


def test_benchmark_alone_exits_nonzero(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "host-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_concurrent_spans_split_the_instants_they_share(tmp_path):
    spans = [
        RawSpan(1, "parent", None, 0.0, 10.0, 1, 0),
        RawSpan(2, "child", 1, 1.0, 4.0, 2, 0),
        RawSpan(3, "child", 1, 3.0, 6.0, 3, 0),  # overlaps span 2
        RawSpan(4, "grandchild", 3, 3.5, 4.5, 3, 0),
    ]
    times = attributed_times(spans)
    assert times == pytest.approx({1: 5.0, 2: 2.5, 3: 1.75, 4: 0.75})
    assert sum(times.values()) == pytest.approx(10.0)
    # Without overlap it is plain self time: duration minus children.
    serial = attributed_times(spans[:2])
    assert serial == pytest.approx({1: 7.0, 2: 3.0})
    path = export_chrome_trace(spans, str(tmp_path / "t.json"))
    events = json.loads(Path(path).read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["parent", "child", "child", "grandchild"]
    assert events[0]["dur"] == pytest.approx(10e6)
