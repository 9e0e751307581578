"""Observability overhead: the same campaign with repro.obs off vs on.

Every hot path in the stack (TCP transfers, speed tests, route cache,
engine events) carries permanent instrumentation that collapses to
near-free no-ops while :mod:`repro.obs` is disabled.  This bench times
one fixed campaign three ways - obs off, obs on, and obs on while also
exporting the profile artifacts - and holds the enabled run under a
1.5x budget so the "instrumentation is cheap enough to leave in"
promise stays enforced rather than assumed.  One untimed campaign runs
first, so the process warm-up (first imports, first allocations) is
not charged to whichever variant happens to be timed first.  Each
campaign takes well under a second, so one off/on pair measures mostly
host noise: the gate reads the median on/off ratio over
:data:`PAIRS` pairs that alternate which side runs first.

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import statistics
import time

import repro.obs as obs
from repro.core.export import dataset_digest
from repro.obs.exporters import (metrics_to_jsonlines,
                                 metrics_to_prometheus,
                                 span_totals_to_jsonlines)
from repro.report.tables import TextTable

from conftest import FIXED_SERVERS, fixed_plan

#: Small fixed shape (``conftest.fixed_plan`` for two days): the bench
#: compares obs-on against obs-off on identical work, so it only needs
#: to be stable, not paper-scale.
DAYS = 2
MAX_OVERHEAD = 1.5
PAIRS = 5


def _run_once(enabled):
    """One campaign; returns (dataset, campaign s, campaign + export s)."""
    if enabled:
        obs.enable()
    try:
        clasp, plan = fixed_plan()
        start = time.perf_counter()
        dataset = clasp.run_campaign([plan], days=DAYS)
        elapsed = time.perf_counter() - start
        if not enabled:
            return dataset, elapsed, elapsed
        totals = obs.tracer().totals()
        snapshot = obs.snapshot()
        export_start = time.perf_counter()
        exports = (span_totals_to_jsonlines(totals)
                   + metrics_to_jsonlines(snapshot)
                   + metrics_to_prometheus(snapshot))
        assert exports
        return dataset, elapsed, elapsed + time.perf_counter() - export_start
    finally:
        if enabled:
            obs.disable()


def test_bench_obs_overhead(emit):
    _run_once(False)  # warm-up, untimed
    off, on, on_export = [], [], []
    digest = None
    for pair in range(PAIRS):
        timed = {}
        for enabled in ((False, True) if pair % 2 == 0 else (True, False)):
            dataset, elapsed, with_export = _run_once(enabled)
            if digest is None:
                digest = dataset_digest(dataset)
            # Instrumentation must observe the campaign, never perturb it.
            assert dataset_digest(dataset) == digest
            timed[enabled] = (elapsed, with_export)
        off.append(timed[False][0])
        on.append(timed[True][0])
        on_export.append(timed[True][1])
    ratios = [b / a for a, b in zip(off, on)]
    export_ratios = [b / a for a, b in zip(off, on_export)]
    rows = [
        ("obs disabled (no-op helpers)", off, [1.0]),
        ("obs enabled (spans + metrics)", on, ratios),
        ("  + export jsonl/prom", on_export, export_ratios),
    ]

    table = TextTable(
        ["variant", "median s", "median vs disabled"],
        title=f"repro.obs overhead: {DAYS} days x {FIXED_SERVERS} servers "
              f"({dataset.completed_tests} tests), {PAIRS} alternating "
              "off/on pairs")
    for label, seconds, pair_ratios in rows:
        table.add_row([label, f"{statistics.median(seconds):.2f}",
                       f"{statistics.median(pair_ratios):.2f}x"])
    per_pair = ", ".join(f"{r:.2f}x" for r in ratios)
    emit("bench_obs_overhead",
         table.render() + f"\nper-pair enabled/disabled: {per_pair}")

    enabled_ratio = statistics.median(ratios)
    assert enabled_ratio < MAX_OVERHEAD, (
        f"obs-enabled campaign ran a median {enabled_ratio:.2f}x the "
        f"disabled baseline over {PAIRS} pairs (budget {MAX_OVERHEAD}x)")
