# Convenience targets for the reproduction package.

PYTHON ?= python

.PHONY: install test coverage fuzz-smoke fuzz-long billing-smoke slo-smoke explain-smoke bench bench-smoke bench-faults-smoke bench-perf-smoke bench-bulk-smoke bench-obs-smoke bench-rebalance-smoke bench-cluster-smoke bench-slo-smoke obs-smoke examples figures clean

install:
	pip install -e '.[dev]'

test:
	$(PYTHON) -m pytest tests/

# tests with line coverage and the CI fail-under gate (needs pytest-cov,
# installed by `make install`)
coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing --cov-fail-under=73

# seeded scenario fuzz with every paper-equation oracle armed: 25 seeds
# x 200 ticks x 2 engines (scalar + bulk) = 10k engine-ticks,
# cross-engine bit-identity checked each tick (CI gate: zero invariant
# violations)
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro check fuzz --seeds 25 --ticks 200 --repro-dir fuzz-repros

# the nightly long-run variant: 50 seeds x 1000 ticks x 2 engines =
# 100k engine-ticks; failing seeds are shrunk into fuzz-repros/
fuzz-long:
	PYTHONPATH=src $(PYTHON) -m repro check fuzz --seeds 50 --ticks 1000 --repro-dir fuzz-repros

# fuzzed multi-tenant metering: 17 seeds x 200 ticks x 2 engines =
# 6.8k metered engine-ticks, every invoice line re-derived from the
# decision ledger by the billing oracle with exact equality (CI gate:
# zero billing violations; failing seeds shrink into billing-repros/)
billing-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bill fuzz --seeds 17 --ticks 200 --tenants 3 --engine both --repro-dir billing-repros

# fuzzed SLO-plane audit: 3 seeds x 150 ticks x 2 engines with the
# plane + billing attached, three gates armed per seed — cross-engine
# alert-stream equality, byte-identical ledgers across replays, and
# report-stream transparency against a detached run (CI gate: zero
# failing seeds; alert ledgers + summary land in slo-artefacts/)
slo-smoke:
	PYTHONPATH=src $(PYTHON) -m repro slo eval --seeds 3 --ticks 150 --tenants 3 --engine both --out slo-artefacts

# one `repro explain` lookup per ledger kind, every ledger written
# through the CLI into explain-artefacts/: a decision ledger (--obs-dir),
# a rebalance ledger (rebalance run --ledger) and an alert ledger (slo
# eval --out); the moved VM and the alerting SLO are read off the
# ledgers (CI gate: every lookup exits 0)
EXPLAIN_DIR = explain-artefacts
explain-smoke:
	rm -rf $(EXPLAIN_DIR)
	PYTHONPATH=src $(PYTHON) -m repro eval1 --config B --duration 10 --time-scale 0.5 --obs-dir $(EXPLAIN_DIR)/obs > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro explain --obs-dir $(EXPLAIN_DIR)/obs --vm large-0 --vcpu 0 --tick 3
	PYTHONPATH=src $(PYTHON) -m repro rebalance run --duration 120 --degrade-rate 0.3 --ledger $(EXPLAIN_DIR)/rebalance.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro explain --ledger $(EXPLAIN_DIR)/rebalance.jsonl --move \
	    "$$(PYTHONPATH=src $(PYTHON) -c 'import sys; from repro.obs import read_jsonl; print(next(m["vm"] for r in read_jsonl(sys.argv[1], kind="round") for m in r["moves"]))' $(EXPLAIN_DIR)/rebalance.jsonl)"
	PYTHONPATH=src $(PYTHON) -m repro slo eval --seeds 1 --ticks 150 --tenants 3 --engine bulk --out $(EXPLAIN_DIR)/slo > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro explain --ledger $(EXPLAIN_DIR)/slo/alerts_seed0.jsonl --alert \
	    "$$(PYTHONPATH=src $(PYTHON) -c 'import sys; from repro.obs import read_jsonl; print(read_jsonl(sys.argv[1], kind="alert")[0]["slo"])' $(EXPLAIN_DIR)/slo/alerts_seed0.jsonl)"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# quick backend-batching A/B with tiny parameters (CI gate: the batched
# backend must issue strictly fewer fs ops/tick than the seed walk, with
# a bit-identical report stream)
bench-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_backend_batching.py --benchmark-only -q

# quick chaos drill (CI gate: under the standard fault mix + one crash
# the control plane never dies unrecovered, healthy nodes tick every
# period, and occluded vCPUs hold their Eq. 2 guarantee)
bench-faults-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fault_resilience.py --benchmark-only -q

# quick scalar-vs-bulk engine A/B (CI gate: the report streams
# must stay bit-identical and the bulk per-tick cost may not
# regress >25% against the committed BENCH_controller.json baseline;
# override the tolerance with PERF_TOLERANCE=0.40 etc.)
bench-perf-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_scaling.py -k engine_speedup --benchmark-only -q
	PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick bulk-engine + control-plane bench: both engines, stage 4 with
# funded wallets, then the serial in-process NodeManager vs the
# shm-sharded ShardedNodeManager, then one simulated host sub-step on
# a 2-VM and a 24-vCPU host (CI gates: scalar/bulk report and auction
# bit-identity, serial/shm allocations identical per node, compiled
# node step identical to the CfsScheduler oracle, the bulk full tick,
# per-stage, stage-4 and node-step costs — stages 1 and 6 included —
# within tolerance of the committed baseline, and the dense-host
# single-process tick inside one 1 s control period)
bench-bulk-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_bulk.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick observability-overhead A/B (CI gate: a disabled hub stays
# within noise of the bare controller and full-fidelity recording —
# spans + ledger + flight frames — fits inside 5% of one control
# period per tick)
bench-obs-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_obs_overhead.py --benchmark-only -q

# quick chaos+churn rebalancer A/B on 8 nodes (CI gates: the rebalancer
# must beat static placement on total guarantee-violation VM-seconds and
# the planner round cost may not regress against the committed
# BENCH_rebalance.json baseline)
bench-rebalance-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_rebalance.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick cluster-plane scale pass: 64-node chaos control loop on the
# arrays dialect + 8-node serial vs shm-sharded tick parity (CI gates:
# snapshot+plan p50 and the sharded shm tick fit one control period; no
# gated leaf regresses against, or goes missing from, the committed
# baselines)
bench-cluster-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_cluster_scale.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# quick SLO-plane scrape cost at 64 nodes (CI gates: the ingest+evaluate
# p50 fits one control period outright and no gated leaf regresses
# against the committed BENCH_slo.json baseline)
bench-slo-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_slo_overhead.py --benchmark-only -q
	PYTHONPATH=src $(PYTHON) benchmarks/check_perf_regression.py

# boot the /metrics endpoint on a live observed host and scrape it once
# (CI gate: exposition format parses, every family appears exactly once)
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve-metrics --self-test --ticks 5

# the printed tables + CSVs for every paper figure/table
figures: bench
	@echo "tables  -> benchmarks/artefacts.log"
	@echo "csv     -> benchmarks/results/"

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/cluster_placement.py
	$(PYTHON) examples/dynamic_qos.py
	$(PYTHON) examples/datacenter.py
	$(PYTHON) examples/multi_tenant_node.py --fast
	$(PYTHON) examples/burst_vs_vfreq.py

clean:
	rm -rf benchmarks/artefacts.log benchmarks/results .pytest_cache fuzz-repros billing-repros slo-artefacts explain-artefacts .coverage
	find . -name __pycache__ -type d -exec rm -rf {} +
