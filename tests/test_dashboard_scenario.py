"""Dashboard and detectors over real campaign data (integration)."""

import pytest

from repro.core.congestion import detect
from repro.core.detectors import (
    AutocorrelationDetector,
    HmmDetector,
    VariabilityDetector,
)
from repro.report.dashboard import render_dashboard


@pytest.fixture(scope="module")
def two_region_dataset(run_us_campaign):
    _plans, dataset = run_us_campaign(("us-west2", "europe-west2"),
                                      n_servers=8, days=3)
    return dataset


def test_dashboard_over_campaign(two_region_dataset):
    text = render_dashboard(two_region_dataset, top_k=2)
    assert "## us-west2" in text
    assert "## europe-west2" in text
    assert "download throughput distribution" in text
    # Every region panel reports server counts.
    assert text.count("congested s-hours") >= 2
    assert "cross-layer metrics" not in text  # no snapshot passed


def test_dashboard_obs_panel(two_region_dataset):
    snapshot = {
        "counters": {"speedtest.tests": 42.0},
        "gauges": {"lanes": 3.0},
        "histograms": {"speedtest.download_mbps":
                       {"count": 42, "mean": 97.5, "max": 240.0,
                        "buckets": {"<128": 30, "<256": 12}}},
    }
    text = render_dashboard(two_region_dataset, top_k=2,
                            obs_snapshot=snapshot)
    assert "## cross-layer metrics (repro.obs)" in text
    assert "speedtest.tests" in text
    assert "lanes (gauge)" in text
    assert "speedtest.download_mbps" in text


def test_detectors_on_campaign_pairs(two_region_dataset):
    dataset = two_region_dataset
    report = detect(dataset)
    detectors = (VariabilityDetector(), AutocorrelationDetector(),
                 HmmDetector())
    pair = dataset.pairs()[0]
    series = {d.name: d.detect(dataset, pair) for d in detectors}
    # All detectors see the same timeline length for the same pair
    # except the variability detector, which drops partial days.
    assert series["autocorrelation"].ts.size == \
        series["hmm"].ts.size
    assert series["variability"].ts.size <= \
        series["autocorrelation"].ts.size


def test_detection_fractions_bounded(two_region_dataset):
    dataset = two_region_dataset
    detector = VariabilityDetector()
    for pair in dataset.pairs()[:6]:
        result = detector.detect(dataset, pair)
        assert result.congested.size == result.ts.size
        assert result.n_events == int(result.congested.sum())
