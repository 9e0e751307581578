"""Calibration regression: the paper's bands at a fixed small scale.

These are the guardrails for the experiment scenario: if a substrate
change drifts the headline statistics out of (a widened version of)
the paper's bands, these tests catch it before the benchmarks do.
Kept at a small scale/duration so the whole file stays under a minute.
"""

import numpy as np
import pytest

from repro.core.analysis import performance_scatter
from repro.core.congestion import choose_threshold_elbow, threshold_sweep
from repro.experiments import Pipeline


@pytest.fixture(scope="module")
def calibrated():
    pipeline = Pipeline(seed=7, scale=0.12, days=8)
    dataset = pipeline.topology_dataset()
    return pipeline, dataset


def test_congested_day_band(calibrated):
    _pipeline, dataset = calibrated
    hs, day_frac, hour_frac = threshold_sweep(dataset,
                                              np.array([0.25, 0.5]))
    # Paper: 71-90% at H=0.25 and 11-30% at H=0.5 (widened for the
    # small sample).
    assert 0.55 <= day_frac[0] <= 0.97
    assert 0.08 <= day_frac[1] <= 0.40
    # Paper: 1.3-3% of s-hours at H=0.5 (widened).
    assert 0.008 <= hour_frac[1] <= 0.05


def test_elbow_lands_near_half(calibrated):
    _pipeline, dataset = calibrated
    hs, day_frac, _ = threshold_sweep(dataset,
                                      np.round(np.arange(0.05, 1.0,
                                                         0.05), 2))
    chosen = choose_threshold_elbow(hs, day_frac)
    assert 0.3 <= chosen <= 0.65


def test_download_band(calibrated):
    _pipeline, dataset = calibrated
    points = performance_scatter(dataset, min_samples=100)
    p95 = np.array([p.p95_download_mbps for p in points])
    assert p95.size > 30
    in_band = ((p95 >= 200) & (p95 <= 600)).mean()
    assert in_band >= 0.55           # paper: ~80%
    assert p95.max() <= 1000.0       # nothing saturates the shaping
    assert (p95 < 100).mean() <= 0.1


def test_upload_pinned_at_cap(calibrated):
    _pipeline, dataset = calibrated
    p95_uploads = [np.percentile(dataset.table.series(p)["upload"], 95)
                   for p in dataset.pairs()]
    assert np.median(p95_uploads) > 85.0
    assert max(p95_uploads) <= 100.0


def test_story_networks_detected(calibrated):
    """The named story ISPs must show up congested with the planted
    diurnal shape."""
    from repro.core.congestion import PAPER_THRESHOLD, detect
    pipeline, dataset = calibrated
    report = detect(dataset, threshold=PAPER_THRESHOLD)
    stories = pipeline.scenario.story_asns
    events_by_asn = {}
    for event in report.events:
        asn = dataset.server_meta(event.pair[1]).asn
        events_by_asn.setdefault(asn, []).append(event.local_hour)
    measured_asns = {dataset.server_meta(p[1]).asn
                     for p in report.pair_hours}
    story_hits = 0
    for label in ("cox", "smarterbroadband", "unwired", "suddenlink"):
        asn = stories[label]
        if asn not in measured_asns:
            continue
        hours = events_by_asn.get(asn, [])
        if hours:
            story_hits += 1
            if label == "cox":
                # Daytime congestion story: median event hour in
                # late morning - early evening.
                assert 9 <= np.median(hours) <= 19
            if label in ("unwired", "suddenlink"):
                assert 17 <= np.median(hours) <= 23
    assert story_hits >= 2, "story networks produced no events"
