"""The repository benchmark: host time of one control period, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cluster-wide --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer breakdown (every odd period runs with layer wrappers
installed; the even ones give the untraced baseline for
``trace.overhead``) and writes a Perfetto trace.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit codes: 0 success, 2 the program's
sources are missing, 3 a correctness gate failed, 4 the traced layers
covered less than 95% of the period.

See ``perfbench/WORKLOADS.md`` for what each workload stresses.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Builds per run; ``setup_s`` is their median and the last one is measured.
SETUPS = 5
#: Lowest share of the period wall time the traced layers must explain.
MIN_COVERAGE = 0.95
#: Seeds used while the benchmark was tuned; re-check a claim on a
#: held-out seed (100 and up).
TUNING_SEEDS = range(0, 100)

END_TO_END = (
    ("setup_s", "s"),
    ("period_ms.p50", "ms"),
    ("period_ms.p90", "ms"),
    ("vm_periods_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Guarantee delivery and failed operations over the audited periods.
#: Deterministic for a seed, so they are compared exactly on one seed;
#: across seeds they move with the scenario's own draws (fleet-churn's
#: Poisson chaos events most of all), which no share-of-median bound
#: could hold, so they are reported with the per-layer metrics.
QUALITY = (
    ("guarantee_miss_ratio", "ratio"),
    ("failed_op_ratio", "ratio"),
)

STAGES = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")

#: Span names whose per-period self time is a per-layer metric.
SELF_TIME_LAYERS = (
    ("sim.node_step.ms", "sim.node_step"),
    ("sim.harness.ms", "sim.harness"),
    ("core.backend.sample.ms", "core.backend.sample"),
    ("core.backend.apply.ms", "core.backend.apply"),
    ("core.controller.self_ms", "core.controller"),
    ("sim.node_manager.self_ms", "sim.node_manager.tick"),
    ("obs.hub.ms", "obs.hub"),
    ("billing.ms", "billing"),
    ("obs.slo.ms", "obs.slo"),
    ("sim.churn.ms", "sim.churn"),
)

PER_LAYER = (
    list(QUALITY)
    + [(name, "ms") for name, _ in SELF_TIME_LAYERS]
    + [
        ("sim.node_steps", "count"),
        ("core.backend.fs_ops", "count"),
        ("core.backend.cap_writes_skipped", "count"),
        ("core.backend.cap_write_useful_ratio", "ratio"),
    ]
    + [(f"core.stage.{stage}.ms", "ms") for stage in STAGES]
    + [
        ("core.auction.market_sold_ratio", "ratio"),
        ("sim.node_manager.tick.ms", "ms"),
        ("sim.node_manager.node_errors", "count"),
        ("obs.slo.series", "count"),
        ("rebalance.snapshot_ms.p50", "ms"),
        ("rebalance.plan_ms.p50", "ms"),
        ("rebalance.execute_ms.p50", "ms"),
        ("rebalance.moves", "count"),
        ("rebalance.oracle_rejects", "count"),
        ("rebalance.pressure_relief_ratio", "ratio"),
        ("sim.arrivals", "count"),
        ("sim.departures", "count"),
        ("sim.migrations", "count"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
    ]
)


# -- environment -------------------------------------------------------------------


def git_commit(root: Path):
    """HEAD's commit read from ``.git`` files (no subprocess), or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, path-ordered."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC / "repro"),
        "seed": seed,
        "seed_held_out": seed not in TUNING_SEEDS,
    }


# -- metrics -------------------------------------------------------------------------


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def outcome(m) -> Dict[str, float]:
    """Attempted and failed operations and the quality ratios, from the
    audited counts."""
    c = m.counts
    attempted = (
        c.get("ops.host_ticks", 0) + c.get("ops.arrivals", 0)
        + c.get("ops.churn_migrations", 0) + c.get("rebalance.moves", 0)
        + c.get("rebalance.execute_rejects", 0) + c.get("rebalance.oracle_rejects", 0)
    )
    failed = (
        c.get("ops.host_tick_failures", 0) + c.get("ops.arrivals_rejected", 0)
        + c.get("ops.churn_migrations_failed", 0)
        + c.get("rebalance.execute_rejects", 0) + c.get("rebalance.oracle_rejects", 0)
    )
    if "vm_seconds" in c:
        miss = _ratio(c["bad_vm_seconds"], c["vm_seconds"])
    else:
        miss = _ratio(c["guarantee.missed"], c["guarantee.demanding"])
    return {
        "attempted": int(attempted),
        "failed": int(failed),
        "guarantee_miss_ratio": miss,
        "failed_op_ratio": _ratio(failed, attempted),
    }


def end_to_end(setups: List[float], m) -> Dict[str, float]:
    """The timed metrics, in reference time (see ``calibrate``)."""
    factor = calibrate.factors(m.ref_s)
    periods = [s * f for s, f, t in zip(m.period_s, factor, m.traced) if not t]
    vms = [v for v, t in zip(m.vms, m.traced) if not t]
    return {
        "setup_s": statistics.median(setups),
        "period_ms.p50": statistics.median(periods) * 1e3,
        "period_ms.p90": p90(periods) * 1e3,
        "vm_periods_per_s": sum(vms) / sum(periods),
        "peak_rss_mb": m.peak_rss_mb,
    }


def host_time(setups_host: List[float], m) -> Dict[str, float]:
    """The same timings in plain host time, for the record file."""
    periods = [s for s, t in zip(m.period_s, m.traced) if not t]
    return {
        "setup_s": statistics.median(setups_host),
        "period_ms.p50": statistics.median(periods) * 1e3,
        "period_ms.p90": p90(periods) * 1e3,
        "reference_loop_ms.p50": statistics.median(m.ref_s) * 1e3,
    }


def per_layer(workload, m, quality: Dict[str, float]):
    """Per-layer metrics of a traced run: reference milliseconds per
    traced period, counts per audited period.  Also returns every span
    name's attributed reference milliseconds per traced period (the
    self-time table)."""
    from tracer import attributed_times

    factor = calibrate.factors(m.ref_s)
    spans = workload.recorder.spans
    attributed = attributed_times(spans)
    n_traced = max(m.traced.count(True), 1)
    by_name: Dict[str, float] = {}
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + attributed[s.span_id] * factor[s.period]
    out: Dict[str, float] = {name: quality[name] for name, _ in QUALITY}
    for metric, span_name in SELF_TIME_LAYERS:
        out[metric] = by_name.get(span_name, 0.0) / n_traced * 1e3
    out["sim.node_manager.tick.ms"] = sum(
        s.duration * factor[s.period] for s in spans if s.name == "sim.node_manager.tick"
    ) / n_traced * 1e3

    # Rebalance phases: per-round totals, median over traced rounds.
    rounds: Dict[int, Dict[str, float]] = {}
    for s in spans:
        if s.name == "rebalance.round":
            rounds[s.span_id] = {}
    for s in spans:
        if s.parent_id in rounds and s.name.startswith("rebalance."):
            phase = rounds[s.parent_id]
            phase[s.name] = phase.get(s.name, 0.0) + s.duration * factor[s.period]
    for phase in ("snapshot", "plan", "execute"):
        values = [r.get(f"rebalance.{phase}", 0.0) for r in rounds.values()]
        out[f"rebalance.{phase}_ms.p50"] = statistics.median(values) * 1e3 if values else 0.0

    c = m.counts
    periods = c["periods"]
    fs_ops = sum(
        c.get(f"backend.{k}", 0)
        for k in ("fs_reads", "fs_writes", "fs_listdirs", "proc_reads", "sysfs_reads")
    )
    out["sim.node_steps"] = c.get("sim.node_steps", 0) / periods
    out["core.backend.fs_ops"] = fs_ops / periods
    out["core.backend.cap_writes_skipped"] = c.get("backend.cap_writes_skipped", 0) / periods
    out["core.backend.cap_write_useful_ratio"] = _ratio(
        c.get("backend.fs_writes", 0),
        c.get("backend.fs_writes", 0) + c.get("backend.cap_writes_skipped", 0),
    )
    for stage in STAGES:
        out[f"core.stage.{stage}.ms"] = sum(
            stages[stage] * f for stages, f in zip(m.stage_s, factor)
        ) / periods * 1e3
    market = c.get("core.market_initial", 0.0)
    out["core.auction.market_sold_ratio"] = _ratio(
        market - c.get("core.market_left", 0.0), market
    )
    out["sim.node_manager.node_errors"] = c.get("sim.node_manager.node_errors", 0) / periods
    slo = getattr(workload, "slo", None)
    out["obs.slo.series"] = float(len(slo.store)) if slo is not None else 0.0
    out["rebalance.moves"] = c.get("rebalance.moves", 0) / periods
    out["rebalance.oracle_rejects"] = c.get("rebalance.oracle_rejects", 0) / periods
    before = c.get("rebalance.pressure_before_mhz", 0.0)
    out["rebalance.pressure_relief_ratio"] = _ratio(
        before - c.get("rebalance.pressure_after_mhz", 0.0), before
    )
    out["sim.arrivals"] = (c.get("ops.arrivals", 0) - c.get("ops.arrivals_rejected", 0)) / periods
    out["sim.departures"] = c.get("sim.departures", 0) / periods
    out["sim.migrations"] = c.get("sim.migrations", 0) / periods

    # Coverage: attributed layer time over the traced periods' wall time.
    wall = sum(s for s, t in zip(m.period_s, m.traced) if t)
    out["trace.coverage"] = _ratio(sum(attributed.values()), wall)
    traced = [s * f for s, f, t in zip(m.period_s, factor, m.traced) if t]
    untraced = [s * f for s, f, t in zip(m.period_s, factor, m.traced) if not t]
    out["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    self_ms = {name: v / n_traced * 1e3 for name, v in by_name.items()}
    return out, self_ms


# -- the run -------------------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Run the whole process, and every thread it starts, on one CPU.

    The reference loop then measures the core the program runs on.
    Unpinned, ``cluster-wide``'s worker threads spread over both vCPUs
    of the development box, and a run where the second vCPU was busy
    elsewhere took 330 ms a period against 210 ms, with the main
    thread's reference loop reading the same speed in both.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_workloads():
    """Import the program; exits 2 when its sources are not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return {
        "host-dense": workloads.HostDense,
        "cluster-wide": workloads.ClusterWide,
        "fleet-churn": workloads.FleetChurn,
    }


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False):
    """Set up, gate, measure.

    Returns ``(workload, setups, setups_host, measurement)``: set-up
    times in reference seconds and in host seconds, one per build.
    """
    classes = load_workloads()
    setups: List[float] = []
    setups_host: List[float] = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workload = classes[name](seed, tiny=tiny)
        before = calibrate.sample()
        t0 = time.perf_counter()
        workload.setup()
        spent = time.perf_counter() - t0
        setups_host.append(spent)
        setups.append(spent * calibrate.factor(before, calibrate.sample()))
    try:
        workload.gate()
        m = workload.measure(seconds, trace)
    finally:
        workload.close()
    return workload, setups, setups_host, m


def print_table(title: str, rows: List[tuple]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("host-dense", "cluster-wide", "fleet-churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the benchmark's own tests)")
    parser.add_argument("--out-dir", default=str(HERE / "out"),
                        help="where the result file and Perfetto trace go")
    args = parser.parse_args(argv)

    load_workloads()
    from gate import GateFailure

    cpus = os.sched_getaffinity(0)
    env = fingerprint(args.seed)
    env["cpu"] = pin_to_one_cpu()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        workload, setups, setups_host, m = run(
            args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
        )
    except GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    finally:
        os.sched_setaffinity(0, cpus)
    out = outcome(m)
    e2e = end_to_end(setups, m)
    host = host_time(setups_host, m)
    print_table(f"{args.workload} seed={args.seed} end-to-end "
                f"({m.traced.count(False)} untraced periods)",
                [(k, e2e[k], u) for k, u in END_TO_END]
                + [(k, out[k], u) for k, u in QUALITY]
                + [(f"host {k}", v, "s" if k == "setup_s" else "ms") for k, v in host.items()])
    result_metrics = e2e
    status = 0
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "end_to_end": e2e, "host_time": host, "quality": out,
              "counts": m.counts, "period_s": m.period_s, "reference_s": m.ref_s,
              "traced": m.traced, "setup_s": setups, "setup_host_s": setups_host}
    if args.trace:
        from tracer import export_chrome_trace

        layers, self_ms = per_layer(workload, m, out)
        record["per_layer"] = layers
        record["self_time_ms"] = self_ms
        total = sum(self_ms.values())
        print(f"{args.workload} self time per traced period (reference ms, share)")
        for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<40} {ms:>10.3f} ms {ms / total:>7.1%}")
        print_table(f"{args.workload} per-layer (ms per traced period, counts "
                    f"per audited period)", [(k, layers[k], u) for k, u in PER_LAYER])
        trace_path = export_chrome_trace(workload.recorder.spans, stem + ".perfetto.json")
        print(f"perfetto trace: {trace_path}")
        result_metrics = layers
        units = dict(PER_LAYER)
        if layers["trace.coverage"] < MIN_COVERAGE:
            print(f"perfbench: trace.coverage {layers['trace.coverage']:.3f} "
                  f"< {MIN_COVERAGE}", file=sys.stderr)
            status = 4
    else:
        units = dict(END_TO_END)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if status:
        return status
    print(json.dumps({
        "correct": True,  # every gate passed; a failed one returned 3 above
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
