PYTHON ?= python
export PYTHONPATH := src

.PHONY: test check check-concur bench-smoke bench bench-selftest bench-lanes bench-links bench-health bench-e7 lint stats monitor

## Tier-1: the full unit/integration suite (tests/ only).
test:
	$(PYTHON) -m pytest -x -q

## lexcheck: static analysis of the shipped mapping configuration
## (docs/ANALYSIS.md).  Fails on any unsuppressed warning or error.
check:
	$(PYTHON) -m repro check --fail-on=warning

## LX5xx: concurrency lints over the runtime source (docs/CONCURRENCY.md)
## plus the witness-enabled threaded stress tests.  Fails on any
## unsuppressed warning or error, or on a witness.violation.
check-concur:
	$(PYTHON) -m repro check --concurrency --fail-on=warning
	$(PYTHON) -m pytest tests/test_threaded_coordinator.py tests/test_stateful_system.py tests/test_lockwitness.py -x -q

## Smoke: one benchmark file with metrics enabled — gates the
## instrumentation overhead of the observability layer.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -m benchmarks -s -p no:cacheprovider

## Coordinator-lane sweep (1/2/4/8 lanes, partition-disjoint workload);
## writes BENCH_lanes.json (docs/CONCURRENCY.md).
bench-lanes:
	$(PYTHON) -m pytest benchmarks/test_lane_throughput.py -m benchmarks -s -p no:cacheprovider

## Device-link throughput (16 devices, 2 ms serial craft channels) and
## the stalled-link admission check; writes BENCH_links.json
## (docs/DEVICE_LINKS.md).
bench-links:
	$(PYTHON) -m pytest benchmarks/test_links_throughput.py -m benchmarks -s -p no:cacheprovider

## Health-plane overhead: pipeline throughput with the journal + health
## board + background auditor on vs observability off, in the same run;
## writes BENCH_health.json and fails on > 5% regression.
bench-health:
	$(PYTHON) -m pytest benchmarks/test_health_overhead.py -m benchmarks -s -p no:cacheprovider

## Rule evaluation engines: interpreter vs compiled closures vs verify
## mode on the E7 image() workload; writes BENCH_e7.json and fails when
## compiled closures are < 2x the interpreter (docs/LEXPRESS_COMPILER.md).
bench-e7:
	$(PYTHON) -m pytest benchmarks/test_e7_compiled.py -m benchmarks -s -p no:cacheprovider

## Static checks (ruff config in pyproject.toml); skips when ruff is absent.
lint:
	@$(PYTHON) -m ruff --version >/dev/null 2>&1 \
		&& $(PYTHON) -m ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping lint"

## Self-test of the end-to-end benchmark harness (perfbench/): both
## workloads on short runs, so a config change cannot break it unseen.
bench-selftest:
	$(PYTHON) -m pytest -q perfbench -p no:cacheprovider

## The full experiment harness (slow).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

## Run the demo workload and dump metrics + traces.
stats:
	$(PYTHON) -m repro stats

## Run the demo workload and show the health-plane dashboard.
monitor:
	$(PYTHON) -m repro monitor
