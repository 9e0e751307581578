"""Ablation: sensitivity of the findings to the threshold H.

The paper picked H = 0.5 with the elbow method.  This ablation shows
what the headline numbers (congested s-days/s-hours, congested-server
counts) would have been at neighbouring thresholds, and that the
congested-server *set* is stable around the elbow (the design choice
is robust, not a knife's edge).
"""

from repro.core.congestion import detect
from repro.report.tables import TextTable, format_percent

THRESHOLDS = (0.3, 0.4, 0.5, 0.6, 0.7)


def _evaluate(pipeline):
    dataset = pipeline.topology_dataset()
    out = {}
    for h in THRESHOLDS:
        report = detect(dataset, threshold=h)
        out[h] = (report.congested_day_fraction,
                  report.congested_hour_fraction,
                  set(report.congested_pairs()))
    return out


def _jaccard(a, b):
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def test_ablation_threshold(benchmark, pipeline, emit):
    results = benchmark.pedantic(_evaluate, args=(pipeline,),
                                 rounds=1, iterations=1)
    table = TextTable(
        ["H", "congested s-days", "congested s-hours",
         "congested servers", "overlap with H=0.5"],
        title="Ablation: threshold sensitivity")
    base_set = results[0.5][2]
    for h in THRESHOLDS:
        days, hours, pairs = results[h]
        table.add_row([f"{h:.1f}", format_percent(days),
                       format_percent(hours, 2), len(pairs),
                       f"{_jaccard(pairs, base_set):.2f}"])
    emit("ablation_threshold", table.render())

    # Monotonicity: a stricter threshold labels less.
    day_series = [results[h][0] for h in THRESHOLDS]
    assert all(a >= b - 1e-12 for a, b in zip(day_series, day_series[1:]))
    # Stability: neighbours of H=0.5 keep a similar congested set.
    assert _jaccard(results[0.4][2], base_set) > 0.5
    assert _jaccard(results[0.6][2], base_set) > 0.5
