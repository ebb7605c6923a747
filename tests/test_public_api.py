"""Public-surface snapshot: the supported API, frozen.

Every name below is a deliberate commitment — re-exported from a
package ``__init__`` and documented in ``docs/api.md``.  If this test
fails you either (a) added a name: extend the snapshot here *and* note
the addition in CHANGES.md, or (b) removed/renamed one: that is a
breaking change — follow the deprecation policy (one release with a
``DeprecationWarning``) and note the break in CHANGES.md.  The point is
that the surface can never change silently.
"""

import importlib

import pytest

EXPECTED = {
    "repro": {
        "CgroupFS",
        "CgroupVersion",
        "Controller",
        "ControllerConfig",
        "ControllerReport",
        "HostBackend",
        "SampleBatch",
        "VirtualFrequencyController",
        "CHETEMI",
        "CHICLET",
        "Cluster",
        "Node",
        "NodeSpec",
        "Observability",
        "ObsConfig",
        "BestFit",
        "FirstFit",
        "CoreSplittingConstraint",
        "VcpuCountConstraint",
        "NodeManager",
        "ShardedNodeManager",
        "TickResult",
        "Scenario",
        "Simulation",
        "eval1_chetemi",
        "eval1_chiclet",
        "eval2_chetemi",
        "Hypervisor",
        "SMALL",
        "MEDIUM",
        "LARGE",
        "VMTemplate",
        "Compress7Zip",
        "OpenSSLSpeed",
        "__version__",
    },
    "repro.core": {
        "Controller",
        "HostBackend",
        "BackendStats",
        "BatchStats",
        "SampleBatch",
        "ControllerConfig",
        "cycles_per_period",
        "guaranteed_cycles",
        "cycles_to_mhz",
        "mhz_to_cycles",
        "Monitor",
        "VCpuSample",
        "TrendEstimator",
        "EstimatorDecision",
        "CreditLedger",
        "apply_base_capping",
        "run_auction",
        "AuctionOutcome",
        "distribute_leftovers",
        "Enforcer",
        "VirtualFrequencyController",
        "ControllerReport",
        "ResiliencePolicy",
        "ResilienceStats",
        "DegradedVcpu",
        "snapshot",
        "restore",
        "to_json",
        "from_json",
        "VcpuTable",
        "TickView",
        "render_stage_seconds",
        "render_span_seconds",
        "render_cluster",
        "MetricsBuffer",
        "render_backend_stats",
        "render_controller",
        "render_fault_stats",
        "render_node_manager",
        "render_rebalance",
        "render_report",
        "render_resilience",
        "render_billing",
    },
    "repro.billing": {
        "BillingEngine",
        "CreditLine",
        "DEFAULT_PRICE_BOOK",
        "Invoice",
        "InvoiceLine",
        "PriceBook",
        "PriceTier",
        "UsageMeter",
        "build_invoices",
        "decompose",
        "invoices_to_json",
        "mhz_seconds_per_cycle",
        "render_invoices",
        "sold_fraction",
    },
    "repro.sim": {
        "NodeManager",
        "ShardedNodeManager",
        "Shard",
        "TickResult",
        "RemoteNodeError",
        "TimeSeries",
        "MetricsRecorder",
        "ClusterRebalanceMetrics",
        "Simulation",
        "Scenario",
        "ScenarioResult",
        "ClusterScenario",
        "VMGroup",
        "chaos_churn",
        "chaos_churn_small",
        "chaos_churn_xl",
        "eval1_chetemi",
        "eval1_chiclet",
        "eval2_chetemi",
        "render_table",
        "series_to_rows",
        "ClusterSimulation",
        "NodeRuntime",
        "ArrivalEvent",
        "CloudOperator",
        "generate_arrivals",
    },
    "repro.rebalance": {
        "ChaosConfig",
        "ChaosResult",
        "ChurnChaosCluster",
        "ClusterStateArrays",
        "ClusterStateView",
        "GOALS",
        "InFlightView",
        "MigrationPlan",
        "MigrationPlanner",
        "MigrationStarted",
        "NodeView",
        "PlannedMove",
        "PlannerConfig",
        "RebalanceLoop",
        "SimulatedArrays",
        "SimulatedNode",
        "SimulatedState",
        "VmView",
        "explain_move",
        "explain_move_from_entries",
        "lookup_move",
    },
    "repro.obs": {
        "ObsConfig",
        "Observability",
        "EventLog",
        "read_jsonl",
        "decision_rows",
        "FlightRecorder",
        "flight_dump_to_trace",
        "MetricsServer",
        "Span",
        "Tracer",
        "RingSink",
        "JsonlSink",
        "chrome_trace_events",
        "write_chrome_trace",
        "configure_logging",
        "get_logger",
        "explain",
        "recompute_allocation",
        # SLO plane: time series, burn-rate alerting, anomaly detection
        "Series",
        "SeriesStore",
        "SLOConfig",
        "SLOPlane",
        "SLOSpec",
        "BurnRateRule",
        "default_slos",
        "explain_alert",
        "AnomalyConfig",
        "EwmaDetector",
    },
    "repro.checking": {
        "INVARIANTS",
        "InvariantChecker",
        "InvariantViolationError",
        "Violation",
        "FuzzResult",
        "audit_billing",
        "billing_predicate",
        "derive_billing",
        "fuzz_one",
        "generate_trace",
        "replay_with_billing",
        "shrink_trace",
        "ReplayResult",
        "Trace",
        "replay",
    },
    "repro.faults": {
        "ControllerCrash",
        "FaultInjector",
        "FaultPlan",
        "FaultSpec",
        "FAULT_KINDS",
        "ERRNO_BY_NAME",
    },
    "repro.virt": {
        "VMTemplate",
        "SMALL",
        "MEDIUM",
        "LARGE",
        "template_by_name",
        "VMInstance",
        "VCpu",
        "Hypervisor",
        "BurstPolicy",
        "BurstVMController",
        "VmdfsController",
        "DeflationController",
    },
}


@pytest.mark.parametrize("module_name", sorted(EXPECTED))
def test_all_matches_snapshot(module_name):
    module = importlib.import_module(module_name)
    declared = set(module.__all__)
    expected = EXPECTED[module_name]
    added = declared - expected
    removed = expected - declared
    assert not added and not removed, (
        f"{module_name} public surface changed silently. "
        f"Added: {sorted(added) or '-'}; removed: {sorted(removed) or '-'}. "
        f"Update tests/test_public_api.py AND note the change in CHANGES.md."
    )


@pytest.mark.parametrize("module_name", sorted(EXPECTED))
def test_all_names_importable(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} is in __all__ but missing"


def test_no_duplicate_exports():
    for module_name, names in EXPECTED.items():
        module = importlib.import_module(module_name)
        assert len(module.__all__) == len(set(module.__all__)), (
            f"{module_name}.__all__ contains duplicates"
        )


def test_full_scenario_runs_from_public_surface_only():
    """No module outside the re-exported surface is needed to drive a
    complete (tiny) scenario end to end — the acceptance criterion for
    the curated API."""
    import repro
    import repro.sim

    scenario = repro.Scenario(
        name="api-smoke",
        node_spec=repro.CHETEMI,
        groups=[
            repro.sim.VMGroup(
                template=repro.SMALL,
                count=2,
                workload_factory=lambda template, start: repro.Compress7Zip(
                    template.vcpus, start_time=start
                ),
            )
        ],
        duration=3.0,
        controller_config=repro.ControllerConfig.paper_evaluation(engine="bulk"),
    )
    result = scenario.run(controlled=True)
    assert result.configuration == "B"
    assert result.metrics is not None
