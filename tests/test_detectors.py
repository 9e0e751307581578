"""Alternative congestion detectors (autocorrelation, HMM)."""

import numpy as np
import pytest

from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.detectors import (
    MIN_SEPARATION,
    AutocorrelationDetector,
    HmmDetector,
    VariabilityDetector,
)
from repro.core.records import MeasurementRecord, ServerMeta
from repro.errors import AnalysisError
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

PAIR = ("r1", "s1", "premium")


def _dataset(pattern, days=6, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    dataset = CampaignDataset(CAMPAIGN_START, CAMPAIGN_START + days * DAY)
    dataset.add_server_meta(ServerMeta(
        server_id="s1", asn=65000, sponsor="Net", city_key="Town, US",
        country="US", utc_offset_hours=0.0, lat=0.0, lon=0.0))
    for day in range(days):
        for hour, value in enumerate(pattern):
            jitter = 1.0 + rng.normal(0, noise) if noise else 1.0
            dataset.record(MeasurementRecord(
                ts=CAMPAIGN_START + day * DAY + hour * HOUR,
                region="r1", vm_name="vm", server_id="s1",
                tier=NetworkTier.PREMIUM,
                download_mbps=max(1.0, float(value) * jitter),
                upload_mbps=95.0, latency_ms=20.0,
                download_loss_rate=0.0, upload_loss_rate=0.0))
    return dataset


CONGESTED = [400.0] * 19 + [60.0, 50.0, 70.0] + [400.0] * 2
FLAT = [400.0] * 24


def test_variability_detector_matches_paper_method():
    dataset = _dataset(CONGESTED)
    result = VariabilityDetector().detect(dataset, PAIR)
    assert result.method == "variability"
    assert result.n_events == 3 * 6
    assert result.congested.mean() == pytest.approx(3 / 24)


def test_variability_detector_validation():
    with pytest.raises(AnalysisError):
        VariabilityDetector(threshold=0.0)


def test_autocorrelation_detects_recurring_trough():
    dataset = _dataset(CONGESTED, noise=0.05)
    detector = AutocorrelationDetector()
    result = detector.detect(dataset, PAIR)
    assert result.n_events > 0
    # Events concentrate in the planted 19:00-21:00 trough.
    idx = np.nonzero(result.congested)[0]
    hours = (idx % 24)
    assert set(hours) <= {19, 20, 21}


def test_autocorrelation_ignores_nonrecurring_noise():
    dataset = _dataset(FLAT, noise=0.10)
    result = AutocorrelationDetector().detect(dataset, PAIR)
    # No diurnal structure -> no candidate -> no events.
    assert result.n_events == 0


def test_autocorrelation_lag_helper():
    values = np.array([1.0, 2.0] * 24)
    detector = AutocorrelationDetector()
    assert detector.lag_autocorrelation(values, 2) > 0.9
    assert detector.lag_autocorrelation(values, 1) < -0.9
    assert detector.lag_autocorrelation(np.ones(48), 24) == 0.0
    assert detector.lag_autocorrelation(np.ones(5), 24) == 0.0


def test_hmm_detects_two_regimes():
    dataset = _dataset(CONGESTED, noise=0.05)
    result = HmmDetector().detect(dataset, PAIR)
    assert result.method == "hmm"
    assert result.n_events > 0
    idx = np.nonzero(result.congested)[0]
    hours = set(idx % 24)
    assert hours <= {19, 20, 21}
    # All planted hours found on most days.
    assert result.n_events >= 3 * 6 - 3


def test_hmm_declines_single_regime():
    dataset = _dataset(FLAT, noise=0.08)
    result = HmmDetector().detect(dataset, PAIR)
    assert result.n_events == 0


def test_hmm_fit_predict_separation():
    detector = HmmDetector()
    values = np.array(([400.0] * 20 + [50.0] * 4) * 4)
    states, params = detector.fit_predict(values)
    assert params["separation"] > MIN_SEPARATION
    assert params["mean_congested"] < params["mean_normal"]
    assert states.shape == values.shape


def test_hmm_short_series():
    detector = HmmDetector()
    states, params = detector.fit_predict(np.array([100.0] * 5))
    assert params["separation"] == 0.0
    assert not states.any()


def _agreement(a, b):
    """Fraction of common timestamps where two detectors agree."""
    _common, ia, ib = np.intersect1d(a.ts, b.ts, return_indices=True)
    return float((a.congested[ia] == b.congested[ib]).mean())


def test_detectors_agree_on_clear_signal():
    dataset = _dataset(CONGESTED, noise=0.03)
    v = VariabilityDetector().detect(dataset, PAIR)
    h = HmmDetector().detect(dataset, PAIR)
    a = AutocorrelationDetector().detect(dataset, PAIR)
    assert _agreement(v, h) > 0.9
    assert _agreement(v, a) > 0.9


def test_hmm_validation():
    with pytest.raises(AnalysisError):
        HmmDetector(n_iter=0)


def test_detection_series_validation():
    from repro.core.detectors import DetectionSeries
    with pytest.raises(AnalysisError):
        DetectionSeries(PAIR, "m", np.zeros(3), np.zeros(2, bool),
                        np.zeros(3))
