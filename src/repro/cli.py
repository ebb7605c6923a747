"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation sections:

* ``eval1`` — Table II/III protocol on chetemi or chiclet (Figs. 6-11)
* ``eval2`` — Table V heterogeneous protocol (Figs. 12-14)
* ``placement`` — the §IV-C BestFit study
* ``overhead`` — per-stage controller cost on a loaded host

Every command prints plain-text tables (the same renderers the benches
use) so results can be diffed across runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.sim.report import render_table, scores_rows, series_to_rows

#: Single-engine choices (controller hot-path implementations).
_ENGINE_CHOICES = ("scalar", "bulk")
#: Multi-engine selectors for the checking tools: ``both`` and its
#: older spelling ``all`` run scalar + bulk in lockstep.
_ENGINE_MULTI = _ENGINE_CHOICES + ("both", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Enabling Dynamic Virtual Frequency "
        "Scaling for Virtual Machines in the Cloud' (CLUSTER 2022)",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable structured logging at this level (default: silent)",
    )
    parser.add_argument(
        "--log-format", default="console", choices=("console", "json"),
        help="log output format (json = one object per line)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("eval1", help="first evaluation (Tables II/III)")
    p1.add_argument("--node", choices=("chetemi", "chiclet"), default="chetemi")
    p1.add_argument("--config", choices=("A", "B", "both"), default="both")
    p1.add_argument("--duration", type=float, default=600.0)
    p1.add_argument("--time-scale", type=float, default=1.0)
    p1.add_argument("--dt", type=float, default=0.5)
    p1.add_argument("--scores", action="store_true",
                    help="run to completion and print per-iteration scores")
    p1.add_argument("--chart", action="store_true",
                    help="render the frequency series as an ASCII chart")
    _add_controller_flags(p1)

    p2 = sub.add_parser("eval2", help="second evaluation (Table V)")
    p2.add_argument("--config", choices=("A", "B", "both"), default="both")
    p2.add_argument("--duration", type=float, default=700.0)
    p2.add_argument("--time-scale", type=float, default=1.0)
    p2.add_argument("--dt", type=float, default=0.5)
    p2.add_argument("--chart", action="store_true",
                    help="render the frequency series as an ASCII chart")
    _add_controller_flags(p2)

    p3 = sub.add_parser("placement", help="the §IV-C placement study")
    p3.add_argument("--consolidation", type=float, default=1.8,
                    help="consolidation factor for the vCPU-count variant")

    p4 = sub.add_parser("overhead", help="controller per-stage cost")
    p4.add_argument("--iterations", type=int, default=20)

    p5 = sub.add_parser("operator", help="admission-policy study under Poisson churn")
    p5.add_argument("--horizon", type=float, default=600.0)
    p5.add_argument("--rate", type=float, default=0.06, help="VM arrivals per second")
    p5.add_argument("--seed", type=int, default=42)
    _add_controller_flags(p5)

    p6 = sub.add_parser(
        "check",
        help="paper-equation invariant tools (fuzzer, trace replay)",
    )
    checksub = p6.add_subparsers(dest="check_command", required=True)
    cf = checksub.add_parser(
        "fuzz",
        help="run seeded fuzz scenarios under both engines with oracles armed",
    )
    cf.add_argument("--seeds", type=int, default=25, metavar="N",
                    help="number of consecutive seeds to run (default 25)")
    cf.add_argument("--start-seed", type=int, default=0, metavar="S",
                    help="first seed (default 0)")
    cf.add_argument("--ticks", type=int, default=200, metavar="T",
                    help="controller ticks per scenario (default 200)")
    cf.add_argument("--engine", choices=_ENGINE_MULTI,
                    default="both",
                    help="engine(s) to replay under (default both = "
                         "scalar+bulk, also spelled 'all'; with both, "
                         "cross-engine bit-identity is checked)")
    cf.add_argument("--no-faults", action="store_true",
                    help="generate scenarios without fault schedules")
    cf.add_argument("--repro-dir", default=None, metavar="DIR",
                    help="shrink each failing seed's trace and write the "
                         "minimal JSONL repro into DIR")
    cr = checksub.add_parser(
        "replay",
        help="replay a JSONL trace (e.g. a committed repro) with oracles armed",
    )
    cr.add_argument("trace", metavar="FILE", help="JSONL trace file")
    cr.add_argument("--engine", choices=_ENGINE_MULTI,
                    default=None,
                    help="override the trace header's engine selection")

    p7 = sub.add_parser(
        "explain",
        help="print the causal derivation of one cpu.max write from a "
             "decision ledger (see docs/observability.md)",
    )
    p7.add_argument("--vm", default=None, help="VM name")
    p7.add_argument("--vcpu", type=int, default=None, help="vCPU index")
    p7.add_argument("--tick", type=int, default=None, help="controller tick")
    p7.add_argument("--move", default=None, metavar="VM",
                    help="explain why this VM was live-migrated (reads the "
                         "rebalance ledger instead of the decision ledger)")
    p7.add_argument("--round", type=int, default=None, metavar="N",
                    help="with --move: pin the rebalance round "
                         "(default: the VM's latest move)")
    p7.add_argument("--alert", default=None, metavar="SLO",
                    help="explain an alert transition of this SLO from an "
                         "alert ledger instead of a cpu.max write (e.g. "
                         "'guarantee' or 'anomaly:backend_errors_total')")
    p7.add_argument("--index", type=int, default=None, metavar="N",
                    help="with --alert: pin the N-th transition of that "
                         "SLO (default: the latest)")
    p7.add_argument("--ledger", default=None, metavar="FILE",
                    help="ledger JSONL file (default: <obs-dir>/ledger.jsonl, "
                         "<obs-dir>/rebalance.jsonl with --move, or "
                         "<obs-dir>/alerts.jsonl with --alert)")
    p7.add_argument("--obs-dir", default=None, metavar="DIR",
                    help="observability output directory of the run")

    p8 = sub.add_parser(
        "trace", help="observability trace tools (flight-recorder dumps)"
    )
    tracesub = p8.add_subparsers(dest="trace_command", required=True)
    tc = tracesub.add_parser(
        "convert",
        help="convert a flight-recorder crash dump into a replayable "
             "JSONL checking trace (feed it to 'repro check replay')",
    )
    tc.add_argument("dump", metavar="DUMP", help="flight_*.json dump file")
    tc.add_argument("-o", "--output", required=True, metavar="FILE",
                    help="JSONL trace to write")

    p10 = sub.add_parser(
        "rebalance",
        help="frequency-guarantee-aware cluster rebalancer (dry-run "
             "plans, node drains, chaos+churn runs; docs/rebalancing.md)",
    )
    rsub = p10.add_subparsers(dest="rebalance_command", required=True)
    rp = rsub.add_parser(
        "plan",
        help="dry-run: snapshot a seeded chaos cluster and print the "
             "scored move list without executing anything",
    )
    _add_chaos_flags(rp)
    rp.add_argument("--at", type=float, default=60.0, metavar="T",
                    help="simulated seconds of chaos+churn before the "
                         "snapshot (default 60)")
    rp.add_argument("--drain", action="append", default=[], metavar="NODE",
                    help="also plan evacuating NODE (repeatable)")
    rp.add_argument("--max-moves", type=int, default=16,
                    help="batch bound per round (default 16)")
    rd = rsub.add_parser(
        "drain",
        help="evacuate a node for maintenance and report when it is empty",
    )
    rd.add_argument("node", metavar="NODE", help="node id, e.g. node-3")
    _add_chaos_flags(rd)
    rd.add_argument("--duration", type=float, default=120.0,
                    help="simulated seconds to run (default 120)")
    rr = rsub.add_parser(
        "run",
        help="run the seeded chaos+churn scenario and report "
             "guarantee-violation time (optionally vs. the static baseline)",
    )
    _add_chaos_flags(rr)
    rr.add_argument("--duration", type=float, default=120.0,
                    help="simulated seconds to run (default 120)")
    rr.add_argument("--rebalance", dest="rebalance",
                    action="store_true", default=True,
                    help="enable the rebalance loop (default)")
    rr.add_argument("--no-rebalance", dest="rebalance", action="store_false",
                    help="static placement only")
    rr.add_argument("--rebalance-every", type=int, default=5, metavar="K",
                    help="planner period in control ticks (default 5)")
    rr.add_argument("--baseline", action="store_true",
                    help="also run the identical seeded scenario without "
                         "the rebalancer and print the comparison")
    rr.add_argument("--ledger", default=None, metavar="FILE",
                    help="write the rebalance ledger JSONL here "
                         "(for 'repro explain --move')")

    p11 = sub.add_parser(
        "bill",
        help="performance-based billing tools: metering demo, "
             "ledger-derived invoices, billing-oracle fuzz "
             "(docs/billing.md)",
    )
    billsub = p11.add_subparsers(dest="bill_command", required=True)
    bd = billsub.add_parser(
        "demo",
        help="run a small multi-tenant host with metering attached, "
             "audit it against the billing oracle, print the invoices",
    )
    bd.add_argument("--ticks", type=int, default=50)
    bd.add_argument("--vms", type=int, default=4, help="VMs to provision")
    bd.add_argument("--tenants", type=int, default=2,
                    help="tenants to spread the VMs over (default 2)")
    bd.add_argument("--seed", type=int, default=42)
    bd.add_argument("--engine", choices=_ENGINE_CHOICES, default="bulk")
    bd.add_argument("--json", action="store_true",
                    help="emit invoices as JSON instead of tables")
    bd.add_argument("--per-vcpu", action="store_true",
                    help="one table row per vCPU instead of per VM")
    bd.add_argument("--metrics", action="store_true",
                    help="also print the Prometheus billing families")
    bv = billsub.add_parser(
        "derive",
        help="re-derive per-tenant invoices from a decision-ledger "
             "JSONL via the billing oracle (no live engine needed)",
    )
    bv.add_argument("ledger", metavar="FILE", help="ledger JSONL file")
    bv.add_argument("--node", default="node-0",
                    help="node label for the rendered invoices")
    bv.add_argument("--json", action="store_true",
                    help="emit invoices as JSON instead of tables")
    bf = billsub.add_parser(
        "fuzz",
        help="fuzzed multi-tenant metering runs with every invoice "
             "re-derived by the billing oracle (the billing-smoke gate)",
    )
    bf.add_argument("--seeds", type=int, default=5, metavar="N",
                    help="number of consecutive seeds to run (default 5)")
    bf.add_argument("--start-seed", type=int, default=0, metavar="S")
    bf.add_argument("--ticks", type=int, default=200, metavar="T",
                    help="controller ticks per scenario (default 200)")
    bf.add_argument("--tenants", type=int, default=3,
                    help="tenants per scenario (default 3)")
    bf.add_argument("--engine", choices=_ENGINE_MULTI, default="both",
                    help="engine(s) to meter under (default both)")
    bf.add_argument("--repro-dir", default=None, metavar="DIR",
                    help="shrink each failing seed's trace and write the "
                         "minimal JSONL repro into DIR")

    p12 = sub.add_parser(
        "slo",
        help="cluster SLO plane: burn-rate alert evaluation over fuzzed "
             "runs, live terminal dashboard (docs/observability.md)",
    )
    slosub = p12.add_subparsers(dest="slo_command", required=True)
    sle = slosub.add_parser(
        "eval",
        help="fuzzed multi-tenant runs with the SLO plane attached; "
             "asserts byte-identical alert ledgers across replays and "
             "bit-identical reports with the plane detached (the "
             "slo-smoke gate)",
    )
    sle.add_argument("--seeds", type=int, default=3, metavar="N",
                     help="number of consecutive seeds to run (default 3)")
    sle.add_argument("--start-seed", type=int, default=0, metavar="S")
    sle.add_argument("--ticks", type=int, default=150, metavar="T",
                     help="controller ticks per scenario (default 150)")
    sle.add_argument("--tenants", type=int, default=3,
                     help="tenants per scenario (default 3)")
    sle.add_argument("--engine", choices=_ENGINE_MULTI, default="both",
                     help="engine(s) to evaluate under (default both)")
    sle.add_argument("--out", default=None, metavar="DIR",
                     help="write per-seed alert ledgers and a summary "
                          "JSON into DIR (the CI artefact)")
    sle.add_argument("--no-determinism", dest="determinism",
                     action="store_false",
                     help="skip the byte-identical-replay check")
    sle.add_argument("--no-transparency", dest="transparency",
                     action="store_false",
                     help="skip the attached-vs-detached report check")
    slw = slosub.add_parser(
        "watch",
        help="tick a small demo cluster and render a terminal SLO "
             "dashboard (budgets, burn rates, firing alerts)",
    )
    slw.add_argument("--nodes", type=int, default=3,
                     help="demo cluster size (default 3)")
    slw.add_argument("--vms", type=int, default=4,
                     help="VMs per node (default 4)")
    slw.add_argument("--tenants", type=int, default=2,
                     help="tenants to spread the VMs over (default 2)")
    slw.add_argument("--ticks", type=int, default=60,
                     help="controller ticks to run (default 60)")
    slw.add_argument("--every", type=int, default=10, metavar="K",
                     help="dashboard refresh period in ticks (default 10)")
    slw.add_argument("--seed", type=int, default=42)
    slw.add_argument("--out", default=None, metavar="DIR",
                     help="also mirror the alert ledger to DIR/alerts.jsonl "
                          "(for 'repro explain --alert')")

    p9 = sub.add_parser(
        "serve-metrics",
        help="run a small simulated host and serve live Prometheus "
             "/metrics scrapes (span histograms included)",
    )
    p9.add_argument("--host", default="127.0.0.1")
    p9.add_argument("--port", type=int, default=9309)
    p9.add_argument("--vms", type=int, default=4, help="VMs to provision")
    p9.add_argument("--ticks", type=int, default=10,
                    help="controller ticks to pre-run before serving")
    p9.add_argument("--seed", type=int, default=42)
    p9.add_argument("--self-test", action="store_true",
                    help="bind an ephemeral port, perform one real "
                         "loopback scrape, validate the payload and exit")
    p9.add_argument("--cluster", type=int, default=0, metavar="N",
                    help="serve a small N-node NodeManager cluster instead "
                         "of a single host: the scrape composes the "
                         "cluster, billing, rebalance and SLO families")
    _add_controller_flags(p9)

    return parser


def _add_chaos_flags(parser: argparse.ArgumentParser) -> None:
    """Cluster-shape knobs shared by the ``rebalance`` subcommands."""
    parser.add_argument("--nodes", type=int, default=8,
                        help="cluster size (default 8)")
    parser.add_argument("--vms", type=int, default=300,
                        help="initial VM population (default 300)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--degrade-rate", type=float, default=0.05,
                        metavar="R",
                        help="chaos events per second cluster-wide "
                             "(default 0.05)")


def _add_controller_flags(parser: argparse.ArgumentParser) -> None:
    """Controller knobs shared by every command that builds a config
    (eval1, eval2, operator, serve-metrics) — defined once, here.

    ``None`` defaults mean "keep the paper's evaluation setting"; any
    value given is routed through
    :meth:`~repro.core.config.ControllerConfig.with_overrides` (via
    :func:`_build_config`), so an invalid combination fails with the
    config validation error rather than deep inside a run.
    """
    parser.add_argument("--period", type=float, default=None, metavar="S",
                        help="controller loop period in seconds (paper: 1.0)")
    parser.add_argument("--reserve-guarantee", action="store_true",
                        help="always reserve the full guarantee C_i "
                             "instead of the demand-gated Eq. 5")
    parser.add_argument("--auction-priority", choices=("credits", "frequency"),
                        default=None,
                        help="auction shopping order (paper: credits)")
    parser.add_argument("--engine", choices=_ENGINE_CHOICES,
                        default=None,
                        help="controller hot-path implementation: the "
                             "bulk array path (default) or the per-vCPU "
                             "scalar oracle; reports are bit-identical "
                             "both ways")
    parser.add_argument("--set", dest="config_sets", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override any ControllerConfig field by name "
                             "(repeatable; values are parsed as Python "
                             "literals, unknown keys are rejected)")
    parser.add_argument("--fault-plan", default=None, metavar="FILE",
                        help="inject faults from a JSON FaultPlan file "
                             "(chaos drill; see docs/faults.md)")
    parser.add_argument("--resilience", action="store_true",
                        help="enable the degraded-mode resilience policy "
                             "(implied by --fault-plan)")
    parser.add_argument("--snapshot-path", default=None, metavar="FILE",
                        help="persist controller state to FILE every "
                             "--snapshot-every ticks and auto-restore "
                             "from it on start")
    parser.add_argument("--snapshot-every", type=int, default=None, metavar="K",
                        help="ticks between periodic snapshots (default 10)")
    parser.add_argument("--invariants", action="store_true",
                        help="run the paper-equation invariant oracles "
                             "inline after every controller tick and fail "
                             "on any violation (off by default for perf)")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="enable observability — span tracing, decision "
                             "ledger, black-box flight recorder — writing "
                             "JSONL artefacts and crash dumps into DIR "
                             "(see docs/observability.md)")


def _config_overrides(args) -> dict:
    overrides = {}
    if args.period is not None:
        overrides["period_s"] = args.period
    if args.reserve_guarantee:
        overrides["reserve_guarantee"] = True
    if args.auction_priority is not None:
        overrides["auction_priority"] = args.auction_priority
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.fault_plan is not None:
        overrides["fault_plan_path"] = args.fault_plan
    if args.fault_plan is not None or args.resilience:
        from repro.core.resilience import ResiliencePolicy

        overrides["resilience"] = ResiliencePolicy()
    if args.snapshot_path is not None:
        overrides["snapshot_path"] = args.snapshot_path
    if args.snapshot_every is not None:
        overrides["snapshot_every_ticks"] = args.snapshot_every
    if args.invariants:
        overrides["check_invariants"] = True
    if getattr(args, "obs_dir", None) is not None:
        from repro.obs import ObsConfig

        overrides["observability"] = ObsConfig(out_dir=args.obs_dir)
    return overrides


def _parse_config_sets(pairs: List[str]) -> dict:
    """``--set KEY=VALUE`` pairs as an override dict.

    Values are parsed as Python literals (``--set period_s=2.0``,
    ``--set control_enabled=False``) with a plain-string fallback
    (``--set engine=bulk``).  Key validity is *not* checked here —
    :meth:`ControllerConfig.with_overrides` rejects unknown keys with
    the full field list in hand.
    """
    import ast

    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"repro: --set expects KEY=VALUE, got {pair!r}"
            )
        try:
            value = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[key] = value
    return overrides


def _build_config(args, base=None):
    """The one path from CLI flags to a validated ControllerConfig.

    Merges the dedicated flags (:func:`_config_overrides`) with any
    ``--set`` pairs and routes everything through
    :meth:`ControllerConfig.with_overrides`.  Returns ``base``
    unchanged (possibly ``None``) when no override was given, so
    callers that treat "no config" specially keep doing so.  Unknown
    keys and invalid combinations exit with a clear message instead of
    a traceback.
    """
    overrides = _config_overrides(args)
    overrides.update(_parse_config_sets(getattr(args, "config_sets", [])))
    if not overrides:
        return base
    from repro.core.config import ControllerConfig

    config = base if base is not None else ControllerConfig.paper_evaluation()
    try:
        return config.with_overrides(**overrides)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"repro: invalid controller configuration: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        from repro.obs.logging import configure_logging

        configure_logging(args.log_level, args.log_format)
    command = {
        "eval1": _cmd_eval1,
        "eval2": _cmd_eval2,
        "placement": _cmd_placement,
        "overhead": _cmd_overhead,
        "operator": _cmd_operator,
        "check": _cmd_check,
        "explain": _cmd_explain,
        "trace": _cmd_trace,
        "rebalance": _cmd_rebalance,
        "bill": _cmd_bill,
        "slo": _cmd_slo,
        "serve-metrics": _cmd_serve_metrics,
    }[args.command]
    return command(args)


# ---------------------------------------------------------------------------


def _configs(choice: str):
    if choice == "both":
        return [("A", False), ("B", True)]
    return [(choice, choice == "B")]


def _print_freq_tables(result, labels, step_s: float, chart: bool = False) -> None:
    series = {
        f"{label} MHz": result.group_freq_series(label) for label in labels
    }
    headers, rows = series_to_rows(series, step_s=step_s)
    print(render_table(headers, rows,
                       title=f"configuration {result.configuration}"))
    if chart:
        from repro.analysis.ascii_chart import chart_time_series

        print(chart_time_series(
            {name: (s.times, s.values) for name, s in series.items()},
            title=f"configuration {result.configuration}",
        ))
    print(f"  cross-core frequency std: {result.mean_core_freq_std_mhz:.1f} MHz")
    if result.configuration == "B":
        print(f"  controller iteration cost: {result.controller_overhead_s * 1e3:.2f} ms "
              f"(monitoring {result.monitor_overhead_s * 1e3:.2f} ms)")


def _cmd_eval1(args) -> int:
    from repro.sim.scenario import eval1_chetemi, eval1_chiclet

    builder = eval1_chetemi if args.node == "chetemi" else eval1_chiclet
    scenario = builder(
        duration=args.duration,
        time_scale=args.time_scale,
        dt=args.dt,
        run_to_completion=args.scores,
    )
    scenario.controller_config = _build_config(args, scenario.controller_config)
    for label, controlled in _configs(args.config):
        result = scenario.run(controlled=controlled)
        _print_freq_tables(
            result, ["small", "large"],
            step_s=50.0 * args.time_scale, chart=args.chart,
        )
        if args.scores:
            headers, rows = scores_rows(result.scores_by_group)
            print(render_table(headers, rows,
                               title=f"scores, configuration {label}"))
        print()
    return 0


def _cmd_eval2(args) -> int:
    from repro.sim.scenario import eval2_chetemi

    scenario = eval2_chetemi(
        duration=args.duration, time_scale=args.time_scale, dt=args.dt
    )
    scenario.controller_config = _build_config(args, scenario.controller_config)
    for _, controlled in _configs(args.config):
        result = scenario.run(controlled=controlled)
        _print_freq_tables(
            result,
            ["small", "medium", "large"],
            step_s=50.0 * args.time_scale,
            chart=args.chart,
        )
        print()
    return 0


def _cmd_placement(args) -> int:
    from repro.hw.cluster import Cluster
    from repro.placement.bestfit import BestFit
    from repro.placement.constraints import (
        CoreSplittingConstraint,
        VcpuCountConstraint,
    )
    from repro.placement.evaluator import evaluate, nodes_by_spec_used
    from repro.placement.request import paper_workload

    cluster = Cluster.paper_cluster()
    requests = paper_workload()
    rows = []
    for label, constraint in (
        ("vCPU count", VcpuCountConstraint()),
        (f"vCPU count x{args.consolidation}",
         VcpuCountConstraint(consolidation_factor=args.consolidation)),
        ("core splitting (Eq. 7)", CoreSplittingConstraint()),
    ):
        placement = BestFit(constraint).place(cluster, requests)
        stats = evaluate(placement)
        spec_counts = nodes_by_spec_used(placement)
        rows.append([
            label,
            f"{stats.nodes_used}/{stats.nodes_total}",
            stats.unplaced,
            f"{stats.max_mhz_load_fraction:.2f}",
            f"{spec_counts.get('chetemi', 0)}+{spec_counts.get('chiclet', 0)}",
        ])
    print(render_table(
        ["constraint", "nodes", "unplaced", "max load", "chetemi+chiclet"],
        rows,
        title="placement of 250 small + 50 medium + 100 large VMs",
    ))
    return 0


def _cmd_overhead(args) -> int:
    import numpy as np

    from repro.sim.scenario import eval1_chetemi

    sim = eval1_chetemi(duration=1.0, dt=0.5).build(controlled=True)
    for vm in sim.hypervisor.vms:
        vm.workload.start_time = 0.0
    sim.run(float(args.iterations))
    reports = sim.controller.reports
    stages = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")
    rows = [
        [stage, f"{np.mean([getattr(r.timings, stage) for r in reports]) * 1e3:.3f}"]
        for stage in stages
    ]
    rows.append(["total", f"{sim.controller.mean_iteration_seconds() * 1e3:.3f}"])
    print(render_table(["stage", "mean ms/iteration"], rows,
                       title=f"controller overhead over {len(reports)} iterations "
                             f"(30 VMs / 80 vCPUs)"))
    stats = sim.controller.backend.stats
    op_rows = [
        [op, count, f"{count / max(len(reports), 1):.1f}"]
        for op, count in stats.as_dict().items()
    ]
    op_rows.append(["total", stats.total_ops, f"{stats.total_ops / max(len(reports), 1):.1f}"])
    print(render_table(["kernel-surface op", "count", "per iteration"], op_rows,
                       title="backend operation budget (batched)"))
    return 0


def _cmd_operator(args) -> int:
    from repro.hw.cluster import Cluster
    from repro.hw.nodespecs import CHETEMI
    from repro.placement.constraints import (
        CoreSplittingConstraint,
        VcpuCountConstraint,
    )
    from repro.sim.arrivals import CloudOperator, generate_arrivals
    from repro.sim.cluster_engine import ClusterSimulation
    from repro.virt.template import LARGE, MEDIUM, SMALL
    from repro.workloads.synthetic import ConstantWorkload

    def workload_for(event):
        return ConstantWorkload(event.template.vcpus, level=1.0)

    events = generate_arrivals(
        rate_per_s=args.rate,
        template_mix=[(SMALL, 5.0), (MEDIUM, 1.0), (LARGE, 2.0)],
        mean_lifetime_s=args.horizon / 2.0,
        horizon_s=args.horizon,
        seed=args.seed,
    )
    rows = []
    for label, constraint, controlled, admission in (
        ("Eq.7 + controller", CoreSplittingConstraint(), True, True),
        ("vCPU count, no capping", VcpuCountConstraint(), False, False),
        ("vCPU x2, no capping", VcpuCountConstraint(consolidation_factor=2.0), False, False),
    ):
        sim = ClusterSimulation(
            Cluster.from_counts({CHETEMI: 1}),
            controlled=controlled,
            dt=0.5,
            enforce_admission=admission,
            controller_config=_build_config(args),
        )
        outcome = CloudOperator(sim, constraint, workload_for).run(
            events, horizon_s=args.horizon
        )
        rows.append([
            label,
            f"{outcome.accepted}/{outcome.accepted + outcome.rejected}",
            f"{outcome.violation_rate * 100:.1f} %",
            len(outcome.vms_violated),
        ])
    print(render_table(
        ["admission policy", "accepted", "SLA violations", "VMs hit"],
        rows,
        title=f"operator study: {len(events)} arrivals over {args.horizon:.0f} s, 1 chetemi",
    ))
    return 0


def _cmd_check(args) -> int:
    if args.check_command == "fuzz":
        return _cmd_check_fuzz(args)
    return _cmd_check_replay(args)


def _cmd_check_fuzz(args) -> int:
    import os

    from repro.checking import fuzz_one, shrink_trace

    failures = 0
    engine_ticks = 0
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        result = fuzz_one(
            seed,
            ticks=args.ticks,
            faults=not args.no_faults,
            engine=args.engine,
        )
        engine_ticks += result.engine_ticks
        if result.ok:
            continue
        failures += 1
        print(f"seed {seed}: FAIL at tick {result.result.violations[0].t:g}")
        for violation in result.result.violations:
            print(f"  {violation}")
        if args.repro_dir:
            os.makedirs(args.repro_dir, exist_ok=True)
            minimal = shrink_trace(result.trace)
            path = os.path.join(args.repro_dir, f"repro_seed{seed}.jsonl")
            minimal.save(path)
            print(f"  shrunk to {len(minimal.events)} events -> {path}")
    verdict = "FAIL" if failures else "ok"
    print(
        f"fuzz: {args.seeds} seeds x {args.ticks} ticks = "
        f"{engine_ticks} engine-ticks, {failures} failing seed(s) [{verdict}]"
    )
    return 1 if failures else 0


def _cmd_check_replay(args) -> int:
    from repro.checking import Trace, replay

    trace = Trace.load(args.trace)
    engines = None
    if args.engine is not None:
        engines = _multi_engines(args.engine)
    result = replay(trace, engines=engines, stop_at_first=False)
    for violation in result.violations:
        print(violation)
    verdict = "ok" if result.ok else "FAIL"
    print(
        f"replay: {result.ticks} tick(s) under {'+'.join(result.engines)}, "
        f"{len(result.violations)} violation(s) [{verdict}]"
    )
    return 0 if result.ok else 1


def _note_torn(path: str, entries) -> None:
    """Say on stderr when a ledger's torn last line (a crash mid-write)
    was dropped, so the explanation is known to end one record early."""
    if entries.dropped:
        print(f"explain: dropped {entries.dropped} torn final line(s) of {path}",
              file=sys.stderr)


def _cmd_explain(args) -> int:
    import os

    from repro.obs.jsonl import read_jsonl
    from repro.obs.ledger import explain_from_entries
    from repro.obs.slo import explain_alert_from_entries
    from repro.rebalance.ledger import explain_move_from_entries

    if args.alert is not None:
        kind = "alert"
    elif args.move is not None:
        kind = "round"
    elif args.vm is None or args.vcpu is None or args.tick is None:
        print("explain: need --vm/--vcpu/--tick (cap derivation) or "
              "--move VM (migration derivation)", file=sys.stderr)
        return 2
    else:
        kind = "tick"
    # One row per record kind: default file in --obs-dir, the ledger's
    # name in messages, and the renderer of one record.
    default_file, name, render = {
        "alert": ("alerts.jsonl", "alert ledger", lambda entries:
                  explain_alert_from_entries(entries, args.alert, args.index)),
        "round": ("rebalance.jsonl", "rebalance ledger", lambda entries:
                  explain_move_from_entries(entries, args.move, args.round)),
        "tick": ("ledger.jsonl", "ledger", lambda entries:
                 explain_from_entries(entries, args.vm, args.vcpu, args.tick)),
    }[kind]
    path = args.ledger
    if path is None:
        if args.obs_dir is None:
            print("explain: need --ledger FILE or --obs-dir DIR",
                  file=sys.stderr)
            return 2
        path = os.path.join(args.obs_dir, default_file)
    if not os.path.exists(path):
        print(f"explain: no {name} at {path}", file=sys.stderr)
        return 2
    entries = read_jsonl(path, kind=kind)
    _note_torn(path, entries)
    try:
        print(render(entries))
    except KeyError as exc:
        print(f"explain: {exc.args[0]}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# rebalance subcommands
# ---------------------------------------------------------------------------


def _chaos_cluster(args, *, duration: float):
    from repro.rebalance import ChaosConfig, ChurnChaosCluster

    return ChurnChaosCluster(ChaosConfig(
        nodes=args.nodes,
        duration_s=duration,
        seed=args.seed,
        initial_vms=args.vms,
        degrade_rate_per_s=args.degrade_rate,
    ))


def _cmd_rebalance(args) -> int:
    return {
        "plan": _cmd_rebalance_plan,
        "drain": _cmd_rebalance_drain,
        "run": _cmd_rebalance_run,
    }[args.rebalance_command](args)


def _cmd_rebalance_plan(args) -> int:
    from repro.rebalance import MigrationPlanner, PlannerConfig

    cluster = _chaos_cluster(args, duration=args.at)
    cluster.run()  # let chaos+churn build pressure before the snapshot
    view = cluster.rebalance_view()
    planner = MigrationPlanner(
        config=PlannerConfig(max_moves_per_round=args.max_moves)
    )
    try:
        plan = planner.plan(view, drain=args.drain, seed=args.seed)
    except KeyError as exc:
        print(f"rebalance plan: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"snapshot at t={view.t:g}: {len(view.nodes)} nodes, "
          f"{len(view.vms)} VMs, pressure {plan.pressure_before_mhz:.1f} MHz, "
          f"fragmentation {plan.fragmentation_before:.3f}")
    headers = ["vm", "from", "to", "goal", "MHz", "cost s", "score MHz/s"]
    rows = [
        [m.vm_name, m.source, m.target, m.reason,
         f"{m.demand_mhz:.0f}", f"{m.cost_s:.2f}", f"{m.score:.1f}"]
        for m in plan.moves
    ]
    print(render_table(headers, rows, title="planned moves (dry run)"))
    print(f"  planned pressure after: {plan.pressure_after_mhz:.1f} MHz; "
          f"total cost {plan.total_cost_s():.1f} s")
    if plan.skipped:
        skipped = ", ".join(
            f"{k}={v}" for k, v in sorted(plan.skipped.items())
        )
        print(f"  skipped: {skipped}")
    return 0


def _cmd_rebalance_drain(args) -> int:
    from repro.rebalance import MigrationPlanner, RebalanceLoop

    cluster = _chaos_cluster(args, duration=args.duration)
    if args.node not in cluster.nodes:
        print(f"rebalance drain: unknown node {args.node!r} "
              f"(cluster has node-0..node-{args.nodes - 1})", file=sys.stderr)
        return 2
    loop = RebalanceLoop(MigrationPlanner(), every=1, seed=args.seed)
    loop.request_drain(args.node)
    cluster.run(loop)
    remaining = len(cluster.nodes[args.node].vms)
    moves = loop.migrations_total.get("drain", 0)
    if remaining == 0:
        print(f"{args.node} drained: {moves} VM(s) evacuated in "
              f"{loop.rounds_total} round(s); safe to power off")
        return 0
    print(f"{args.node} NOT fully drained after {args.duration:g} s: "
          f"{remaining} VM(s) remain ({moves} moved) — run longer or "
          f"free capacity elsewhere", file=sys.stderr)
    return 1


def _cmd_rebalance_run(args) -> int:
    from repro.sim.scenario import ClusterScenario

    def scenario(rebalance: bool) -> ClusterScenario:
        return ClusterScenario(
            name=f"chaos-churn-{args.nodes}",
            nodes=args.nodes,
            vms=args.vms,
            duration=args.duration,
            seed=args.seed,
            degrade_rate_per_s=args.degrade_rate,
            rebalance=rebalance,
            rebalance_every=args.rebalance_every,
            ledger_path=args.ledger if rebalance else None,
        )

    result = scenario(args.rebalance).run()
    rows = [[
        "rebalanced" if args.rebalance else "static",
        f"{result.violation_vm_seconds:.0f}",
        f"{result.downtime_vm_seconds:.1f}",
        f"{result.total_bad_vm_seconds:.0f}",
        str(result.migrations),
    ]]
    if args.baseline and args.rebalance:
        base = scenario(False).run()
        rows.append([
            "static baseline",
            f"{base.violation_vm_seconds:.0f}",
            f"{base.downtime_vm_seconds:.1f}",
            f"{base.total_bad_vm_seconds:.0f}",
            str(base.migrations),
        ])
    headers = ["run", "violation VM-s", "downtime VM-s", "total VM-s",
               "migrations"]
    print(render_table(
        headers, rows,
        title=f"chaos+churn: {args.nodes} nodes, {args.vms} VMs, "
              f"{args.duration:g} s, seed {args.seed}",
    ))
    if args.baseline and args.rebalance:
        if result.total_bad_vm_seconds < base.total_bad_vm_seconds:
            ratio = base.total_bad_vm_seconds / max(
                result.total_bad_vm_seconds, 1e-9
            )
            print(f"  rebalancer reduced guarantee-violation time "
                  f"{ratio:.1f}x vs. static placement")
        else:
            print("  WARNING: rebalancer did not beat the static baseline")
    if args.ledger and args.rebalance:
        print(f"  ledger: {args.ledger} "
              f"(try: python -m repro explain --move <vm> --ledger {args.ledger})")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.flight_recorder import FlightRecorder, flight_dump_to_trace

    try:
        dump = FlightRecorder.load(args.dump)
    except FileNotFoundError:
        print(f"error: no such flight dump: {args.dump}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = flight_dump_to_trace(dump)
    trace.save(args.output)
    frames = dump["frames"]
    print(
        f"converted {len(frames)} recorded tick(s) "
        f"(reason: {dump['reason']}) into {len(trace.events)} events "
        f"-> {args.output}"
    )
    print(f"replay with: python -m repro check replay {args.output}")
    return 0


# ---------------------------------------------------------------------------
# bill subcommands
# ---------------------------------------------------------------------------


def _cmd_bill(args) -> int:
    return {
        "demo": _cmd_bill_demo,
        "derive": _cmd_bill_derive,
        "fuzz": _cmd_bill_fuzz,
    }[args.bill_command](args)


def _cmd_bill_demo(args) -> int:
    import random

    from repro.billing import BillingEngine, invoices_to_json, render_invoices
    from repro.checking import audit_billing
    from repro.core.config import ControllerConfig
    from repro.core.controller import VirtualFrequencyController
    from repro.core.metrics_export import render_billing
    from repro.hw.node import Node
    from repro.hw.nodespecs import NodeSpec
    from repro.obs import ObsConfig, Observability
    from repro.virt.hypervisor import Hypervisor, VMTemplate

    spec = NodeSpec(
        name="billing-demo", cpu_model="demo CPU", sockets=1,
        cores_per_socket=2, threads_per_core=2, fmax_mhz=2400.0,
        fmin_mhz=1200.0, memory_mb=8 * 1024, freq_jitter_mhz=0.0,
    )
    node = Node(spec, seed=args.seed)
    hv = Hypervisor(node)
    cfg = ControllerConfig.paper_evaluation(check_invariants=True)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz, config=cfg,
    )
    hub = Observability(ObsConfig(
        tracing=False, ledger=True, flight_recorder_ticks=0,
        ledger_ring_ticks=args.ticks + 1,
    ))
    hub.bind(ctrl)
    ctrl.obs = hub
    BillingEngine.attach(ctrl, node_id=spec.name)
    rng = random.Random(args.seed)
    vms = []
    for k in range(args.vms):
        tenant = f"tenant-{k % max(args.tenants, 1)}"
        vfreq = 300.0 * (1 + k % 3)
        template = VMTemplate(
            f"demo-{k}", vcpus=2, vfreq_mhz=vfreq, tenant=tenant,
        )
        vm = hv.provision(template, template.name)
        ctrl.register_vm(vm.name, vfreq, tenant=tenant)
        vms.append(vm)
    for i in range(args.ticks):
        for vm in vms:
            vm.set_uniform_demand(rng.random())
        node.step(cfg.period_s)
        ctrl.tick(float(i + 1))
    violations = audit_billing(ctrl.billing, hub.ledger.records)
    invoices = ctrl.billing.invoices()
    if args.json:
        print(invoices_to_json(invoices))
    else:
        print(render_invoices(invoices, per_vcpu=args.per_vcpu))
    if args.metrics:
        print(render_billing(ctrl.billing))
    for violation in violations:
        print(violation)
    verdict = "FAIL" if violations else "ok"
    print(
        f"bill demo: {args.ticks} tick(s), {args.vms} VM(s), "
        f"{len(invoices)} invoice(s), oracle audit "
        f"{len(violations)} violation(s) [{verdict}]"
    )
    return 1 if violations else 0


def _cmd_bill_derive(args) -> int:
    import os

    from repro.billing import build_invoices, invoices_to_json, render_invoices
    from repro.checking import derive_billing
    from repro.obs.jsonl import read_jsonl

    if not os.path.exists(args.ledger):
        print(f"bill derive: no ledger at {args.ledger}", file=sys.stderr)
        return 2
    entries = read_jsonl(args.ledger, kind="tick")
    derived = derive_billing(entries)
    invoices = build_invoices(derived.usage, derived.credits, node=args.node)
    if args.json:
        print(invoices_to_json(invoices))
    else:
        print(render_invoices(invoices))
    for violation in derived.violations:
        print(violation)
    verdict = "FAIL" if derived.violations else "ok"
    print(
        f"bill derive: {len(entries)} ledger tick(s) -> "
        f"{len(invoices)} invoice(s), "
        f"{len(derived.violations)} integrity violation(s) [{verdict}]"
    )
    return 1 if derived.violations else 0


def _cmd_bill_fuzz(args) -> int:
    import os

    from repro.checking import (
        billing_predicate,
        generate_trace,
        replay_with_billing,
        shrink_trace,
    )

    engines = _multi_engines(args.engine)
    failures = 0
    engine_ticks = 0
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        trace = generate_trace(seed, ticks=args.ticks, tenants=args.tenants)
        result = replay_with_billing(trace, engines=engines)
        engine_ticks += result.replay.ticks * len(result.replay.engines)
        if result.ok:
            continue
        failures += 1
        all_violations = list(result.replay.violations) + result.violations
        print(f"seed {seed}: FAIL ({len(all_violations)} violation(s))")
        for violation in all_violations[:8]:
            print(f"  {violation}")
        if args.repro_dir:
            os.makedirs(args.repro_dir, exist_ok=True)
            if result.violations:
                minimal = shrink_trace(
                    trace, predicate=billing_predicate(engines=engines),
                )
            else:
                minimal = shrink_trace(trace)
            path = os.path.join(args.repro_dir, f"repro_seed{seed}.jsonl")
            minimal.save(path)
            print(f"  shrunk to {len(minimal.events)} events -> {path}")
    verdict = "FAIL" if failures else "ok"
    print(
        f"bill fuzz: {args.seeds} seeds x {args.ticks} ticks = "
        f"{engine_ticks} metered engine-ticks, every invoice line "
        f"re-derived by the oracle, {failures} failing seed(s) [{verdict}]"
    )
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# slo subcommands
# ---------------------------------------------------------------------------


def _cmd_slo(args) -> int:
    return {
        "eval": _cmd_slo_eval,
        "watch": _cmd_slo_watch,
    }[args.slo_command](args)


def _multi_engines(choice: str):
    if choice in ("both", "all"):
        from repro.checking.trace import ENGINES

        return ENGINES
    return (choice,)


def _cmd_slo_eval(args) -> int:
    """Fuzzed runs with the SLO plane attached, two gates armed:

    * **determinism** — replaying the identical trace twice yields
      byte-identical serialized alert-transition ledgers (the
      deterministic profile, ``wallclock=False``), and all engines
      produce the same stream;
    * **transparency** — report streams with the plane (and billing)
      attached are bit-identical to a detached replay, field for field.
    """
    import json
    import os

    from repro.billing import DEFAULT_PRICE_BOOK, BillingEngine
    from repro.checking import generate_trace
    from repro.checking.trace import _compare_reports, replay
    from repro.fileio import atomic_write
    from repro.obs.slo import SLOConfig, SLOPlane

    engines = _multi_engines(args.engine)

    def run_attached(trace):
        """One attached replay; returns (result, planes-by-engine)."""
        planes = {}
        billing = {}

        def attach(controller, engine: str) -> None:
            bill = billing.get(engine)
            if bill is None:
                bill = billing[engine] = BillingEngine(DEFAULT_PRICE_BOOK)
            controller.billing = bill
            plane = planes.get(engine)
            if plane is None:
                plane = planes[engine] = SLOPlane(
                    SLOConfig(wallclock=False)
                )
            controller.slo = plane

        result = replay(
            trace, engines=engines, stop_at_first=False,
            collect_reports=args.transparency, attach=attach,
        )
        return result, planes

    def alert_stream(plane) -> str:
        return "\n".join(
            json.dumps(t, sort_keys=True) for t in plane.ledger
        )

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    failures = 0
    summary = []
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        trace = generate_trace(seed, ticks=args.ticks, tenants=args.tenants)
        problems = []
        result, planes = run_attached(trace)
        if result.violations:
            problems.append(
                f"{len(result.violations)} oracle violation(s), first: "
                f"{result.violations[0]}"
            )
        streams = {e: alert_stream(planes[e]) for e in result.engines}
        first = result.engines[0]
        for engine in result.engines[1:]:
            if streams[engine] != streams[first]:
                problems.append(
                    f"alert streams differ across engines "
                    f"({first} vs {engine})"
                )
        if args.determinism:
            result2, planes2 = run_attached(trace)
            for engine in result.engines:
                if alert_stream(planes2[engine]) != streams[engine]:
                    problems.append(
                        f"[{engine}] alert ledger not byte-identical "
                        f"across identical replays"
                    )
        if args.transparency:
            detached = replay(
                trace, engines=engines, stop_at_first=False,
                collect_reports=True,
            )
            for engine in result.engines:
                pairs = zip(result.reports[engine], detached.reports[engine])
                for tick, (attached_r, detached_r) in enumerate(pairs, 1):
                    diffs = _compare_reports(
                        attached_r, detached_r,
                        (f"{engine}+slo", engine), float(tick),
                    )
                    if diffs:
                        problems.append(
                            f"[{engine}] report diverged with the plane "
                            f"attached at tick {tick}: {diffs[0]}"
                        )
                        break
        transitions = len(planes[first].ledger)
        firing = len(planes[first].firing_alerts())
        status = "FAIL" if problems else "ok"
        print(
            f"seed {seed}: {result.ticks} ticks x {len(result.engines)} "
            f"engine(s), {transitions} alert transition(s), {firing} "
            f"still firing [{status}]"
        )
        for problem in problems:
            print(f"  {problem}")
        if args.out:
            path = os.path.join(args.out, f"alerts_seed{seed}.jsonl")
            with atomic_write(path) as fh:
                if streams[first]:
                    fh.write(streams[first] + "\n")
        summary.append({
            "seed": seed,
            "ticks": result.ticks,
            "engines": list(result.engines),
            "transitions": transitions,
            "firing": firing,
            "problems": problems,
        })
        failures += bool(problems)
    if args.out:
        with atomic_write(os.path.join(args.out, "summary.json")) as fh:
            json.dump({"seeds": summary, "failures": failures}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    verdict = "FAIL" if failures else "ok"
    checks = ["cross-engine"]
    if args.determinism:
        checks.append("replay-determinism")
    if args.transparency:
        checks.append("transparency")
    print(
        f"slo eval: {args.seeds} seed(s) x {args.ticks} ticks under "
        f"{'/'.join(engines)}, checks: {', '.join(checks)}, "
        f"{failures} failing seed(s) [{verdict}]"
    )
    return 1 if failures else 0


def _demo_cluster(nodes: int, vms_per_node: int, tenants: int, seed: int,
                  cfg, *, name: str = "slo-demo"):
    """N single-socket demo nodes under one NodeManager, billing
    attached per node.  Returns (manager, per-node VM lists)."""
    from repro.billing import BillingEngine
    from repro.core.controller import VirtualFrequencyController
    from repro.hw.node import Node
    from repro.hw.nodespecs import NodeSpec
    from repro.sim.node_manager import NodeManager
    from repro.virt.hypervisor import Hypervisor, VMTemplate

    manager = NodeManager()
    cluster_vms = {}
    template = VMTemplate("demo", vcpus=2, vfreq_mhz=600.0)
    k = 0
    for n in range(nodes):
        node_id = f"node-{n}"
        spec = NodeSpec(
            name=f"{name}-{n}", cpu_model="demo CPU", sockets=1,
            cores_per_socket=2, threads_per_core=2, fmax_mhz=2400.0,
            fmin_mhz=1200.0, memory_mb=8 * 1024, freq_jitter_mhz=0.0,
        )
        node = Node(spec, seed=seed + n)
        hv = Hypervisor(node)
        ctrl = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz, config=cfg,
        )
        BillingEngine.attach(ctrl, node_id=node_id)
        vms = []
        for _ in range(vms_per_node):
            vm = hv.provision(template, f"demo-{k}")
            ctrl.register_vm(
                vm.name, template.vfreq_mhz,
                tenant=f"tenant-{k % tenants}",
            )
            vms.append(vm)
            k += 1
        manager.add_node(node_id, ctrl)
        cluster_vms[node_id] = (node, vms)
    return manager, cluster_vms


def _cmd_slo_watch(args) -> int:
    import random

    from repro.core.config import ControllerConfig
    from repro.obs.slo import SLOConfig, SLOPlane

    cfg = ControllerConfig.paper_evaluation()
    plane = SLOPlane(SLOConfig(period_s=cfg.period_s, out_dir=args.out))
    manager, cluster_vms = _demo_cluster(
        args.nodes, args.vms, args.tenants, args.seed, cfg
    )
    rng = random.Random(args.seed)
    try:
        for tick in range(1, args.ticks + 1):
            t = float(tick)
            for node_id in sorted(cluster_vms):
                node, vms = cluster_vms[node_id]
                for vm in vms:
                    vm.set_uniform_demand(rng.random())
                node.step(cfg.period_s)
            manager.tick(t)
            # observe_cluster takes the controllers' 0-based tick count
            # (it reads each billing meter at tick + 1).
            transitions = plane.observe_cluster(manager, tick - 1, t=t)
            for transition in transitions:
                print(
                    f"  tick {tick}: {transition['state'].upper()} "
                    f"{transition['slo']} {transition['labels']} "
                    f"({transition['severity']})"
                )
            if tick % args.every == 0 or tick == args.ticks:
                _print_slo_dashboard(plane, tick)
    finally:
        manager.close()
        plane.close()
    if args.out:
        print(f"alert ledger: {plane.ledger.path} "
              f"(try: python -m repro explain --alert <slo> "
              f"--obs-dir {args.out})")
    return 0


def _print_slo_dashboard(plane, tick: int) -> None:
    rows = []
    for spec in plane.specs:
        for labelset in plane._label_sets(spec):
            labels = dict(labelset)
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            ) or "-"
            firing = [
                severity for severity in ("page", "ticket")
                if (spec.name, labelset, severity) in plane._firing
            ]
            rows.append([
                spec.name,
                label_text,
                f"{spec.objective:.3%}",
                f"{plane.error_budget_remaining(spec, labels):.1%}",
                f"{plane.burn_rate(spec, 60, labels):.2f}x",
                f"{plane.burn_rate(spec, 5, labels):.2f}x",
                ",".join(firing) if firing else "ok",
            ])
    print(render_table(
        ["slo", "labels", "objective", "budget left", "burn 60t",
         "burn 5t", "state"],
        rows,
        title=f"SLO dashboard @ tick {tick} "
              f"({plane.transitions_total} transition(s) so far)",
    ))


def _cmd_serve_metrics(args) -> int:
    import random
    import time
    import urllib.request

    from repro.core.config import ControllerConfig
    from repro.core.metrics_export import (
        MetricsBuffer,
        render_billing,
        render_controller,
        render_node_manager,
        render_rebalance,
        render_slo,
    )
    from repro.obs import MetricsServer, ObsConfig
    from repro.obs.slo import SLOConfig, SLOPlane

    base = ControllerConfig.paper_evaluation(
        observability=ObsConfig(out_dir=args.obs_dir),
        check_invariants=True,
    )
    cfg = _build_config(args, base)
    rng = random.Random(args.seed)

    if args.cluster > 0:
        manager, cluster_vms = _demo_cluster(
            args.cluster, args.vms, 2, args.seed, cfg, name="metrics-demo"
        )
        plane = SLOPlane(SLOConfig(period_s=cfg.period_s))
        loop = _metrics_demo_rebalance(args.seed)
        plane.observe_rebalance(loop)

        def one_tick(i: int) -> None:
            for node_id in sorted(cluster_vms):
                node, vms = cluster_vms[node_id]
                for vm in vms:
                    vm.set_uniform_demand(rng.random())
                node.step(cfg.period_s)
            manager.tick(float(i))
            plane.observe_cluster(manager, i - 1, t=float(i))

        def scrape() -> str:
            # One exposition page: manager aggregates, every node's
            # controller (which folds its billing engine in), the
            # rebalance loop, and the cluster SLO plane.
            buf = MetricsBuffer()
            render_node_manager(manager, buf)
            for node_id in sorted(manager.controllers):
                render_controller(
                    manager.controllers[node_id], buf, {"node": node_id}
                )
            render_rebalance(loop, buf)
            render_slo(plane, buf)
            return buf.text()

        close = manager.close
    else:
        from repro.billing import BillingEngine
        from repro.core.controller import VirtualFrequencyController
        from repro.hw.node import Node
        from repro.hw.nodespecs import NodeSpec
        from repro.virt.hypervisor import Hypervisor, VMTemplate

        spec = NodeSpec(
            name="metrics-demo", cpu_model="demo CPU", sockets=1,
            cores_per_socket=2, threads_per_core=2, fmax_mhz=2400.0,
            fmin_mhz=1200.0, memory_mb=8 * 1024, freq_jitter_mhz=0.0,
        )
        node = Node(spec, seed=args.seed)
        hv = Hypervisor(node)
        ctrl = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz, config=cfg,
        )
        BillingEngine.attach(ctrl)
        SLOPlane.attach(ctrl)
        template = VMTemplate("demo", vcpus=2, vfreq_mhz=600.0)
        vms = []
        for k in range(args.vms):
            vm = hv.provision(template, f"demo-{k}")
            ctrl.register_vm(vm.name, template.vfreq_mhz,
                             tenant=f"tenant-{k % 2}")
            vms.append(vm)

        def one_tick(i: int) -> None:
            for vm in vms:
                vm.set_uniform_demand(rng.random())
            node.step(cfg.period_s)
            ctrl.tick(float(i))

        def scrape() -> str:
            # render_controller folds the attached SLO plane in itself.
            buf = MetricsBuffer()
            render_controller(ctrl, buf)
            render_billing(ctrl.billing, buf)
            return buf.text()

        def close() -> None:
            if ctrl.obs is not None:
                ctrl.obs.close()

    for i in range(args.ticks):
        one_tick(i + 1)
    server = MetricsServer(
        scrape,
        host=args.host,
        port=0 if args.self_test else args.port,
    ).start()
    print(f"serving {server.address}")
    if args.self_test:
        try:
            with urllib.request.urlopen(server.address) as resp:
                ctype = resp.headers.get("Content-Type", "")
                body = resp.read().decode()
        finally:
            server.stop()
            close()
        assert "text/plain" in ctype, f"unexpected content type {ctype!r}"
        helps = [ln.split()[2] for ln in body.splitlines()
                 if ln.startswith("# HELP")]
        assert len(helps) == len(set(helps)), "duplicate HELP family"
        families = [
            "vfreq_vcpu_consumed_cycles",
            "vfreq_stage_seconds",
            "vfreq_invariant_checks_total",
            "vfreq_backend_ops_total",
            "vfreq_revenue_total",
            "vfreq_sla_credits_total",
            "vfreq_slo_error_budget_remaining",
            "vfreq_alerts_firing",
            "vfreq_alert_transitions_total",
        ]
        if args.cluster > 0:
            families += [
                "vfreq_rebalance_rounds_total",
                "vfreq_migrations_total",
            ]
        else:
            families.append("vfreq_span_seconds")
        for family in families:
            assert f"# HELP {family} " in body, f"family missing: {family}"
        print(
            f"self-test ok: scraped {len(body.splitlines())} lines, "
            f"{len(helps)} families, ticks={args.ticks}"
            + (f", nodes={args.cluster}" if args.cluster else "")
        )
        return 0
    tick = args.ticks
    try:
        while True:
            time.sleep(cfg.period_s)
            tick += 1
            one_tick(tick)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        close()
    return 0


def _metrics_demo_rebalance(seed: int):
    """A short seeded chaos+churn burn so the ``--cluster`` endpoint's
    rebalance families carry real counters and histograms."""
    from repro.rebalance import (
        ChaosConfig,
        ChurnChaosCluster,
        MigrationPlanner,
        RebalanceLoop,
    )

    chaos = ChurnChaosCluster(ChaosConfig(
        nodes=4, duration_s=30.0, seed=seed, initial_vms=40,
        degrade_rate_per_s=0.02,
    ))
    loop = RebalanceLoop(MigrationPlanner(), every=5, seed=seed)
    chaos.run(loop)
    return loop


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
