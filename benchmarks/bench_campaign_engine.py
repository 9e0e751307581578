"""Engine overhead: the hour loop before vs after the event bus.

The PR that introduced :mod:`repro.engine` replaced the campaign
runner's inline hour loop (direct dataset/billing mutation) with an
event bus and observers.  This bench times the same one-region
campaign three ways - bare (dataset + billing observers only), with a
metrics observer attached, and with metrics + a JSON-lines trace - so
the per-observer cost of the instrumentation seam stays visible in
the benchmark log.

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import io
import time

from repro.engine import MetricsObserver, TraceObserver
from repro.report.tables import TextTable

from conftest import FIXED_SERVERS, fixed_plan

#: Small fixed shape (``conftest.fixed_plan`` for two days): the bench
#: compares loop variants against each other, not against the paper,
#: so it only needs to be stable.
DAYS = 2


def _run_once(observers):
    clasp, plan = fixed_plan()
    start = time.perf_counter()
    dataset = clasp.run_campaign([plan], days=DAYS, observers=observers)
    elapsed = time.perf_counter() - start
    return dataset, elapsed


def test_bench_campaign_engine(emit):
    variants = [
        ("bare hour loop", lambda: _run_once([])),
        ("+ metrics observer", lambda: _run_once([MetricsObserver()])),
        ("+ metrics + trace",
         lambda: _run_once([MetricsObserver(),
                            TraceObserver(io.StringIO())])),
    ]
    rows = []
    baseline = None
    n_tests = None
    for label, run in variants:
        dataset, elapsed = run()
        if n_tests is None:
            n_tests = dataset.completed_tests
        assert dataset.completed_tests == n_tests  # same work every time
        if baseline is None:
            baseline = elapsed
        rows.append((label, elapsed, elapsed / baseline))

    table = TextTable(
        ["variant", "seconds", "vs bare"],
        title=f"campaign hour loop: {DAYS} days x {FIXED_SERVERS} servers "
              f"({n_tests} tests)")
    for label, elapsed, ratio in rows:
        table.add_row([label, f"{elapsed:.2f}", f"{ratio:.2f}x"])
    emit("bench_campaign_engine", table.render())

    # The observer seam must stay cheap relative to the campaign
    # itself; a generous bound still catches pathological regressions
    # (e.g. re-sorting a series per event) without flaking on noise.
    for label, elapsed, ratio in rows[1:]:
        assert ratio < 3.0, f"{label} slowed the hour loop {ratio:.1f}x"
