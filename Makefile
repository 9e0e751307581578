# Development entry points.  `make check` is the single gate CI and
# contributors run: one repro.lint pass (per-file rules plus the
# RPR010/RPR011 cross-file determinism rules), a CLI smoke test, then
# the test suite (which also checks the event and alert-rule
# registries), with the coverage floor when pytest-cov is available.

PYTHON ?= python

.PHONY: check lint test golden bench-shard bench-streaming \
	bench-alerts bench-trend perfbench perfbench-trace perfbench-pairs

check:
	$(PYTHON) scripts/check.py

lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src/repro

test:
	PYTHONPATH=src $(PYTHON) -m pytest -q

golden:
	$(PYTHON) scripts/regen_golden.py

# Regenerate BENCH_campaign.json (the batch off/on perf trajectory).
bench-shard:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:cacheprovider benchmarks/bench_shard_scale.py

# Re-anchor the streaming_detect point (incremental vs rescan).
bench-streaming:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:cacheprovider benchmarks/bench_streaming.py

# Re-anchor the alerts_eval point (rule evaluation riding the collector).
bench-alerts:
	PYTHONPATH=src $(PYTHON) -m pytest -q -p no:cacheprovider benchmarks/bench_alerts.py

# Perf-trend gate: fresh batch + streaming ratios vs the committed anchors.
bench-trend:
	$(PYTHON) scripts/bench_trend.py

# End-to-end benchmark of the BENCHMARK.json workloads (medians, untraced).
PERFBENCH_WORKLOADS = monitored-campaign faulty-campaign

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --trace 0 || exit 1; \
	done

# One untraced and one traced run per workload: per-layer calls and times.
perfbench-trace:
	for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --trace 1 || exit 1; \
	done

# Paired runs of BASE against the working tree (alternating order), with
# per-metric medians, quartiles, wins and the paired gain verdict.
BASE ?= HEAD
WORKLOAD ?= faulty-campaign
PAIRS ?= 10
SEED ?= 7

perfbench-pairs:
	$(PYTHON) scripts/perf_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seed $(SEED)
