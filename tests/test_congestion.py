"""Congestion detection: V(s,d), V_H(s,t), elbow, events."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.congestion import (
    CongestionEvent,
    DayRecord,
    MIN_SAMPLES_PER_DAY,
    PAPER_THRESHOLD,
    choose_threshold_elbow,
    detect,
    hourly_variability,
    midnight_day_index,
    threshold_sweep,
)
from repro.core.records import MeasurementRecord, ServerMeta
from repro.errors import AnalysisError
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR


def _make_dataset(hourly_downloads, days=2, offset_hours=0.0,
                  server_id="srv-1", region="us-west1"):
    """Dataset with a repeating 24-value daily download pattern."""
    dataset = CampaignDataset(CAMPAIGN_START, CAMPAIGN_START + days * DAY)
    dataset.add_server_meta(ServerMeta(
        server_id=server_id, asn=65000, sponsor="Test ISP",
        city_key="Testtown, US", country="US",
        utc_offset_hours=offset_hours, lat=0.0, lon=0.0,
        business_type="isp"))
    for day in range(days):
        for hour, value in enumerate(hourly_downloads):
            dataset.record(MeasurementRecord(
                ts=CAMPAIGN_START + day * DAY + hour * HOUR
                - offset_hours * HOUR,
                region=region, vm_name="vm-1", server_id=server_id,
                tier=NetworkTier.PREMIUM, download_mbps=float(value),
                upload_mbps=95.0, latency_ms=20.0,
                download_loss_rate=1e-4, upload_loss_rate=1e-4))
    return dataset


FLAT_DAY = [400.0] * 24
# Throughput collapses 10:00-13:00 (indices 10..12).
CONGESTED_DAY = [400.0] * 10 + [120.0, 80.0, 100.0] + [400.0] * 11


def _pair(region="us-west1", server="srv-1"):
    return (region, server, NetworkTier.PREMIUM.value)


def test_day_record_variability():
    record = DayRecord(pair=_pair(), day_index=0, n_samples=24,
                       t_max=400.0, t_min=100.0)
    assert record.variability == pytest.approx(0.75)
    zero = DayRecord(pair=_pair(), day_index=0, n_samples=24,
                     t_max=0.0, t_min=0.0)
    assert zero.variability == 0.0


def test_flat_day_not_congested():
    dataset = _make_dataset(FLAT_DAY)
    report = detect(dataset)
    assert len(report.day_records) == 2
    assert all(r.variability == 0.0 for r in report.day_records)
    assert not report.events


def test_congested_day_detected():
    dataset = _make_dataset(CONGESTED_DAY)
    report = detect(dataset, threshold=0.5)
    assert all(r.variability == pytest.approx(0.8)
               for r in report.day_records)
    events = report.events_of(_pair())
    # Three congested hours per day, two days.
    assert len(events) == 6
    assert sorted({e.local_hour for e in events}) == [10, 11, 12]
    assert all(e.v_h > 0.5 for e in events)
    assert all(e.day_peak_mbps == pytest.approx(400.0) for e in events)


def test_local_time_conversion():
    """Events at 10:00-12:00 local must be found regardless of the
    server's timezone."""
    dataset = _make_dataset(CONGESTED_DAY, offset_hours=-8.0)
    events = detect(dataset, threshold=0.5).events_of(_pair())
    assert sorted({e.local_hour for e in events}) == [10, 11, 12]


def test_hourly_variability_values():
    dataset = _make_dataset(CONGESTED_DAY, days=1)
    ts, vh = hourly_variability(dataset, _pair())
    assert ts.size == 24
    assert vh.max() == pytest.approx(0.8)
    assert (vh > PAPER_THRESHOLD).sum() == 3


def test_partial_days_skipped():
    dataset = _make_dataset(CONGESTED_DAY[:4], days=1)  # only 4 samples
    report = detect(dataset)
    assert report.day_records == []
    assert report.pair_hours == {_pair(): 0}
    ts, vh = hourly_variability(dataset, _pair())
    assert ts.size == 0


def test_daily_variability_grouping():
    dataset = _make_dataset(CONGESTED_DAY)
    report = detect(dataset, region="us-west1")
    assert list(report.pair_hours) == [_pair()]
    assert [r.pair for r in report.day_records] == [_pair()] * 2
    empty = detect(dataset, region="eu-x")
    assert empty.day_records == [] and empty.pair_hours == {}


def test_threshold_sweep_monotone_and_bounds():
    dataset = _make_dataset(CONGESTED_DAY)
    hs, day_frac, hour_frac = threshold_sweep(
        dataset, np.arange(0.1, 1.0, 0.1))
    assert np.all(np.diff(day_frac) <= 1e-12)
    assert np.all(np.diff(hour_frac) <= 1e-12)
    assert day_frac[0] == 1.0           # V = 0.8 > 0.1 every day
    assert hour_frac[-1] == 0.0
    with pytest.raises(AnalysisError):
        threshold_sweep(dataset, [])


def test_elbow_on_synthetic_knee():
    h = np.linspace(0.0, 1.0, 21)
    # A curve with a sharp knee at 0.5.
    f = np.where(h < 0.5, 1.0 - 1.6 * h, 0.25 - 0.1 * (h - 0.5))
    chosen = choose_threshold_elbow(h, f)
    assert 0.4 <= chosen <= 0.6


def test_elbow_respects_label_cap():
    h = np.linspace(0.0, 1.0, 11)
    f = np.linspace(1.0, 0.8, 11)  # labels way too much everywhere
    chosen = choose_threshold_elbow(h, f, max_label_fraction=0.30)
    assert chosen == h[-1]


def test_elbow_validation():
    with pytest.raises(AnalysisError):
        choose_threshold_elbow(np.array([0.1, 0.2]), np.array([1.0, 0.5]))
    with pytest.raises(AnalysisError):
        choose_threshold_elbow(np.linspace(0, 1, 5), np.linspace(1, 0, 4))


def test_detect_report_aggregates():
    dataset = _make_dataset(CONGESTED_DAY)
    report = detect(dataset, threshold=0.5)
    assert report.n_s_days == 2
    assert report.n_congested_days == 2
    assert report.congested_day_fraction == 1.0
    assert report.n_s_hours == 48
    assert report.congested_hour_fraction == pytest.approx(6 / 48)
    assert report.congested_day_count(_pair()) == 2
    assert report.measured_day_count(_pair()) == 2
    assert report.is_congested_server(_pair())
    assert report.congested_pairs() == [_pair()]


def test_congested_server_needs_10pct_of_days():
    # 1 congested day out of 12 measured days: below the 10% bar...
    pattern_days = [CONGESTED_DAY] + [FLAT_DAY] * 11
    dataset = CampaignDataset(CAMPAIGN_START, CAMPAIGN_START + 12 * DAY)
    dataset.add_server_meta(ServerMeta(
        server_id="srv-1", asn=65000, sponsor="T", city_key="X, US",
        country="US", utc_offset_hours=0.0, lat=0.0, lon=0.0))
    for day, pattern in enumerate(pattern_days):
        for hour, value in enumerate(pattern):
            dataset.record(MeasurementRecord(
                ts=CAMPAIGN_START + day * DAY + hour * HOUR,
                region="us-west1", vm_name="vm", server_id="srv-1",
                tier=NetworkTier.PREMIUM, download_mbps=float(value),
                upload_mbps=95.0, latency_ms=20.0,
                download_loss_rate=0.0, upload_loss_rate=0.0))
    report = detect(dataset, threshold=0.5)
    # 1/12 days < 10%... 1/12 = 8.3% -> not congested.
    assert not report.is_congested_server(
        ("us-west1", "srv-1", "premium"))
    # ...but with a stricter bar of 5% it is.
    assert report.is_congested_server(
        ("us-west1", "srv-1", "premium"), min_day_fraction=0.05)


@given(st.lists(st.floats(min_value=1.0, max_value=1000.0),
                min_size=MIN_SAMPLES_PER_DAY, max_size=24))
@settings(max_examples=40, deadline=None)
def test_variability_bounds_property(day_values):
    dataset = _make_dataset(day_values, days=1)
    for record in detect(dataset).day_records:
        assert 0.0 <= record.variability < 1.0
    _ts, vh = hourly_variability(dataset, _pair())
    assert np.all(vh >= 0.0) and np.all(vh < 1.0)


# ----------------------------------------------------------------------
# midnight alignment + lazy report indices (regressions)


def test_midnight_day_index_splits_at_local_midnight():
    start = float(CAMPAIGN_START) + 6 * HOUR  # 06:00 UTC campaign start
    assert midnight_day_index(start, 0.0, start) == 0
    # The boundary is local midnight, 18 hours in - not start + 24 h.
    assert midnight_day_index(start + 17 * HOUR, 0.0, start) == 0
    assert midnight_day_index(start + 18 * HOUR, 0.0, start) == 1
    ts = np.array([start, start + 17 * HOUR, start + 18 * HOUR,
                   start + 42 * HOUR])
    np.testing.assert_array_equal(
        midnight_day_index(ts, 0.0, start), [0, 0, 1, 2])
    # A west-of-UTC server never sees a negative index for ts >= start.
    assert midnight_day_index(start, -7.0, start) >= 0


def test_day_index_nonnegative_for_west_offsets():
    """Start-anchored bucketing gave srv-1's first local hours day -1."""
    dataset = _make_dataset(CONGESTED_DAY, offset_hours=-7.0)
    report = detect(dataset, threshold=0.5)
    assert [r.day_index for r in report.day_records] == [1, 2]
    assert all(e.day_index >= 0 for e in report.events)
    assert report.measured_day_count(_pair()) == 2


def test_non_midnight_start_splits_at_local_midnight():
    """A 06:00 UTC campaign start must not shift the day boundaries."""
    start = float(CAMPAIGN_START) + 6 * HOUR
    dataset = CampaignDataset(start, start + 2 * DAY)
    dataset.add_server_meta(ServerMeta(
        server_id="srv-1", asn=65000, sponsor="T", city_key="X, US",
        country="US", utc_offset_hours=0.0, lat=0.0, lon=0.0))
    for hour in range(48):
        dataset.record(MeasurementRecord(
            ts=start + hour * HOUR, region="us-west1", vm_name="vm",
            server_id="srv-1", tier=NetworkTier.PREMIUM,
            download_mbps=400.0 + hour * 1e-3, upload_mbps=95.0,
            latency_ms=20.0, download_loss_rate=0.0,
            upload_loss_rate=0.0))
    report = detect(dataset)
    # 18 samples before the first local midnight, then a full day,
    # then a 6-sample tail below MIN_SAMPLES_PER_DAY (dropped).  The
    # old start-anchored bucketing produced two 24-sample "days"
    # straddling midnight.
    assert [(r.day_index, r.n_samples) for r in report.day_records] \
        == [(0, 18), (1, 24)]
    assert report.pair_hours[_pair()] == 42


def test_report_indices_track_list_growth():
    """The lazy per-pair indices rebuild when the report grows."""
    dataset = _make_dataset(CONGESTED_DAY)
    report = detect(dataset, threshold=0.5)
    assert len(report.events_of(_pair())) == 6
    other = ("us-west1", "srv-2", "premium")
    assert report.events_of(other) == []
    # The streaming path appends to these lists between snapshots.
    report.events.append(CongestionEvent(
        pair=other, ts=float(CAMPAIGN_START), local_hour=0, day_index=0,
        v_h=0.9, throughput_mbps=10.0, day_peak_mbps=100.0))
    report.day_records.append(DayRecord(
        pair=other, day_index=0, n_samples=24, t_max=100.0, t_min=10.0))
    assert len(report.events_of(other)) == 1
    assert report.measured_day_count(other) == 1
    assert report.congested_day_count(other) == 1
    assert report.is_congested_server(other)


def test_detection_matches_pinned_fixture():
    from .fixtures_congestion import regression_dataset, serialize_report

    report = detect(regression_dataset(), threshold=0.5)
    fixture = json.loads(
        (pathlib.Path(__file__).parent / "golden"
         / "congestion_detection.json").read_text(encoding="utf-8"))
    assert serialize_report(report) == fixture["report"]
