"""Observability overhead: the same campaign with repro.obs off vs on.

Every hot path in the stack (TCP transfers, speed tests, route cache,
engine events) carries permanent instrumentation that collapses to
near-free no-ops while :mod:`repro.obs` is disabled.  This bench times
one fixed campaign three ways - obs off, obs on, and obs on while also
exporting the profile artifacts - and holds the enabled run under a
1.5x budget so the "instrumentation is cheap enough to leave in"
promise stays enforced rather than assumed.  One untimed campaign runs
first, so the process warm-up (first imports, first allocations) is
not charged to whichever variant happens to be timed first.

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import time

import repro.obs as obs
from repro.core.export import dataset_digest
from repro.obs.exporters import (metrics_to_jsonlines,
                                 metrics_to_prometheus,
                                 span_totals_to_jsonlines)
from repro.experiments.scenario import build_scenario
from repro.report.tables import TextTable
from repro.simclock import CAMPAIGN_START

#: Small fixed shape: the bench compares obs-on against obs-off on
#: identical work, so it only needs to be stable, not paper-scale.
SEED = 11
SCALE = 0.1
DAYS = 2
N_SERVERS = 10
MAX_OVERHEAD = 1.5


def _run_once(enabled):
    if enabled:
        obs.enable()
    try:
        scenario = build_scenario(seed=SEED, scale=SCALE, stories=False)
        clasp = scenario.clasp
        ids = [s.server_id
               for s in scenario.catalog.servers(country="US")[:N_SERVERS]]
        plan = clasp.orchestrator.deploy_topology(
            "us-west1", ids, float(CAMPAIGN_START))
        start = time.perf_counter()
        dataset = clasp.run_campaign([plan], days=DAYS)
        elapsed = time.perf_counter() - start
        exports = None
        if enabled:
            totals = obs.tracer().totals()
            snapshot = obs.snapshot()
            export_start = time.perf_counter()
            exports = (span_totals_to_jsonlines(totals)
                       + metrics_to_jsonlines(snapshot)
                       + metrics_to_prometheus(snapshot))
            elapsed_export = time.perf_counter() - export_start
            return dataset, elapsed, elapsed + elapsed_export, exports
        return dataset, elapsed, elapsed, exports
    finally:
        if enabled:
            obs.disable()


def test_bench_obs_overhead(emit):
    _run_once(False)  # warm-up, untimed
    variants = [
        ("obs disabled (no-op helpers)", False),
        ("obs enabled (spans + metrics)", True),
    ]
    rows = []
    baseline = None
    digest = None
    for label, enabled in variants:
        dataset, elapsed, with_export, exports = _run_once(enabled)
        if digest is None:
            digest = dataset_digest(dataset)
        # Instrumentation must observe the campaign, never perturb it.
        assert dataset_digest(dataset) == digest
        if baseline is None:
            baseline = elapsed
        rows.append((label, elapsed, elapsed / baseline))
        if exports is not None:
            rows.append(("  + export jsonl/prom", with_export,
                         with_export / baseline))

    table = TextTable(
        ["variant", "seconds", "vs disabled"],
        title=f"repro.obs overhead: {DAYS} days x {N_SERVERS} servers "
              f"({dataset.completed_tests} tests)")
    for label, elapsed, ratio in rows:
        table.add_row([label, f"{elapsed:.2f}", f"{ratio:.2f}x"])
    emit("bench_obs_overhead", table.render())

    enabled_ratio = rows[1][2]
    assert enabled_ratio < MAX_OVERHEAD, (
        f"obs-enabled campaign ran {enabled_ratio:.2f}x the disabled "
        f"baseline (budget {MAX_OVERHEAD}x)")
