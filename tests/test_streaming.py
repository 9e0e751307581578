"""Streaming detection: batch equivalence, ordering and late data.

The hard contract under test: finalizing a
:class:`~repro.core.streaming.StreamingCongestionDetector` fed from
the live event bus yields a report *equal* to batch ``detect()`` on
the dataset the same events built - same events, day records, and
pair hours, identical floats - across fault plans, with the scalar and
the vectorized batch path.
"""

import numpy as np
import pytest

from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.congestion import detect
from repro.core.records import MeasurementRecord, ServerMeta
from repro.core.streaming import (StreamingCongestionDetector,
                                  StreamingDetectorObserver,
                                  dataset_offsets, iter_hourly,
                                  stream_dataset)
from repro.errors import ConfigError
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

from .fixtures_blocks import block_of

# Keep in sync with tests/test_shard.py's pinned campaign shape.
SEED, SCALE, REGION, BUDGET_SERVERS, DAYS = 11, 0.05, "us-west1", 8, 2

_FAULT_PLANS = {"off": lambda: None, "default": FaultPlan.default,
                "heavy": FaultPlan.heavy}


def _campaign_with_stream(faults, batch):
    scenario = build_scenario(seed=SEED, scale=SCALE,
                              faults=_FAULT_PLANS[faults]())
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    detector, observer = clasp.streaming_detector()
    dataset = clasp.run_campaign([plan], days=DAYS,
                                 charge_billing=False,
                                 observers=[observer], batch=batch)
    return dataset, detector


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("faults", ["off", "default", "heavy"])
def test_stream_equals_batch(faults, batch):
    dataset, detector = _campaign_with_stream(faults, batch)
    batch = detect(dataset)
    streamed = detector.finalize()
    assert detector.late_dropped == 0
    assert streamed.events == batch.events
    assert streamed.day_records == batch.day_records
    assert streamed.pair_hours == batch.pair_hours
    assert streamed == batch
    assert streamed.congested_pairs() == batch.congested_pairs()


# ----------------------------------------------------------------------
# synthetic feeds (no engine): ordering, late data, state


def _synthetic_dataset(days=3, offset_hours=0.0, server_id="srv-1",
                       start_ts=float(CAMPAIGN_START)):
    """Hourly downloads collapsing at local hours 10-12 every day."""
    dataset = CampaignDataset(start_ts, start_ts + days * DAY)
    dataset.add_server_meta(ServerMeta(
        server_id=server_id, asn=65000, sponsor="Test ISP",
        city_key="Testtown, US", country="US",
        utc_offset_hours=offset_hours, lat=0.0, lon=0.0,
        business_type="isp"))
    n_hours = days * 24
    for hour in range(n_hours):
        ts = start_ts + hour * HOUR
        local_hour = int((ts + offset_hours * HOUR) // HOUR) % 24
        value = 80.0 if local_hour in (10, 11, 12) else 400.0
        dataset.record(MeasurementRecord(
            ts=ts, region="us-west1", vm_name="vm-1",
            server_id=server_id, tier=NetworkTier.PREMIUM,
            download_mbps=value + hour * 1e-3, upload_mbps=95.0,
            latency_ms=20.0, download_loss_rate=1e-4,
            upload_loss_rate=1e-4))
    return dataset


def _rows(dataset):
    rows = []
    for pair in dataset.pairs():
        series = dataset.table.series(pair)
        for ts, value in zip(series["ts"], series["download"]):
            rows.append((float(ts), pair, float(value)))
    rows.sort(key=lambda row: row[0])
    return rows


def test_stream_dataset_replay_matches_batch():
    dataset = _synthetic_dataset(offset_hours=-7.0)
    detector, report = stream_dataset(dataset)
    assert report == detect(dataset)
    assert detector.late_dropped == 0
    assert detector.observed == len(dataset)


def test_out_of_order_within_grace_is_equivalent():
    dataset = _synthetic_dataset()
    detector = StreamingCongestionDetector(
        dataset.start_ts, dataset_offsets(dataset))
    for hour_ts, batch_rows in iter_hourly(_rows(dataset),
                                           dataset.start_ts,
                                           dataset.end_ts):
        detector.advance(hour_ts)
        # Deliver the hour's rows reversed: a day seals only at its
        # local midnight, so reordering within an hour is in time, and
        # the stable ts sort at seal time restores the table order.
        for ts, pair, value in reversed(batch_rows):
            detector.observe(pair, ts, value)
    assert detector.finalize() == detect(dataset)
    assert detector.late_dropped == 0


def test_too_late_observation_is_dropped_and_counted():
    dataset = _synthetic_dataset(days=2)
    detector = StreamingCongestionDetector(
        dataset.start_ts, dataset_offsets(dataset))
    rows = _rows(dataset)
    held_back = rows.pop(5)  # a day-0 sample delivered at campaign end
    for hour_ts, batch_rows in iter_hourly(rows, dataset.start_ts,
                                           dataset.end_ts):
        detector.advance(hour_ts)
        for ts, pair, value in batch_rows:
            detector.observe(pair, ts, value)
    detector.advance(dataset.end_ts)
    assert not detector.observe(held_back[1], held_back[0],
                                held_back[2])
    assert detector.late_dropped == 1
    streamed = detector.finalize()
    batch = detect(dataset)
    pair = held_back[1]
    assert streamed.pair_hours[pair] == batch.pair_hours[pair] - 1


def test_watermark_never_rewinds():
    dataset = _synthetic_dataset(days=1)
    detector = StreamingCongestionDetector(
        dataset.start_ts, dataset_offsets(dataset))
    detector.advance(dataset.start_ts + 5 * HOUR)
    assert detector.advance(dataset.start_ts) == 0
    assert detector.watermark == dataset.start_ts + 5 * HOUR


def test_observer_takes_blocks_whole():
    """A block feeds the detector one observe() per completed row; its
    lost slots, and a block of lost slots only, feed nothing."""
    dataset = _synthetic_dataset(days=1)
    start = dataset.start_ts
    detector = StreamingCongestionDetector(start, dataset_offsets(dataset))
    observer = StreamingDetectorObserver(detector)
    observer.on_test_block(block_of(
        dict(ts=start + 60.0, download_mbps=300.0),
        dict(ts=start + 180.0, reason="speedtest"),
        dict(ts=start + 300.0, download_mbps=200.0)))
    observer.on_test_block(block_of(dict(ts=start + 420.0,
                                         reason="preemption")))
    assert detector.observed == 2
    assert not hasattr(observer, "on_test_completed")


@pytest.mark.parametrize("key,bad", [
    ("threshold", 0.4), ("metric", "upload"), ("min_samples", 4),
    ("lateness_s", 7200.0)])
def test_state_with_another_setting_is_refused(key, bad):
    """The detector's setting is fixed; a state holding another one is
    refused, not read with the constant in its place."""
    dataset = _synthetic_dataset(days=1)
    detector = StreamingCongestionDetector(
        dataset.start_ts, dataset_offsets(dataset))
    for ts, pair, value in _rows(dataset)[:30]:
        detector.advance(ts)
        detector.observe(pair, ts, value)
    state = detector.state_dict()
    state[key] = bad
    with pytest.raises(ConfigError, match=key):
        StreamingCongestionDetector(0.0, dataset_offsets(dataset)) \
            .load_state(state)
