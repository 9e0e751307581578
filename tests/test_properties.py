"""Property-based tests with hand-rolled generators.

No hypothesis dependency: each property runs over many random cases
drawn from a :class:`~repro.rng.SeedTree`, so failures reproduce
exactly (the case index is part of the stream label).

Properties pinned here:

* ``V(s, d)`` is always in ``[0, 1]`` and every hourly ``V_H`` is too;
* the maximum ``V_H`` over a full day equals that day's ``V(s, d)``;
* billing totals are monotone under added egress;
* the browser's retry count never exceeds the configured bound, for
  any fault schedule.
"""

import numpy as np
import pytest

from repro.cloud.billing import CostTracker
from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.congestion import (MIN_SAMPLES_PER_DAY, detect,
                                   hourly_variability)
from repro.core.records import MeasurementRecord, ServerMeta
from repro.errors import SpeedTestError
from repro.faults import FaultPlan
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.speedtest.browser import HeadlessBrowser
from repro.units import DAY, HOUR

N_CASES = 25

_PROPERTY_SEEDS = SeedTree(20210408)  # the paper's IMC year+month+day


def _case_rngs(label):
    """One independent generator per property case."""
    child = _PROPERTY_SEEDS.child(label)
    return [child.generator(f"case-{i}") for i in range(N_CASES)]


# ----------------------------------------------------------------------
# synthetic datasets


def _random_dataset(rng, days=None, holes=False):
    """A one-pair dataset of random hourly throughputs.

    With *holes*, a random subset of hours is dropped, imitating slots
    lost to faults.
    """
    days = days or int(rng.integers(1, 4))
    dataset = CampaignDataset(float(CAMPAIGN_START),
                              float(CAMPAIGN_START) + days * DAY)
    dataset.add_server_meta(ServerMeta(
        server_id="srv", asn=65001, sponsor="Net", city_key="Town, US",
        country="US", utc_offset_hours=0.0, lat=0.0, lon=0.0))
    for h in range(days * 24):
        if holes and rng.random() < 0.4:
            continue
        down = float(rng.uniform(0.0, 950.0))
        dataset.record(MeasurementRecord(
            ts=float(CAMPAIGN_START) + h * HOUR, region="r",
            vm_name="vm", server_id="srv", tier=NetworkTier.PREMIUM,
            download_mbps=down, upload_mbps=float(rng.uniform(0.0, 95.0)),
            latency_ms=float(rng.uniform(1.0, 300.0)),
            download_loss_rate=float(rng.uniform(0.0, 0.2)),
            upload_loss_rate=float(rng.uniform(0.0, 0.2))))
    return dataset


PAIR = ("r", "srv", NetworkTier.PREMIUM.value)


def test_property_daily_variability_in_unit_interval():
    for rng in _case_rngs("vsd-bounds"):
        dataset = _random_dataset(rng, holes=bool(rng.random() < 0.5))
        for record in detect(dataset).day_records:
            assert 0.0 <= record.variability <= 1.0
            assert record.n_samples >= MIN_SAMPLES_PER_DAY


def test_property_hourly_variability_in_unit_interval():
    for rng in _case_rngs("vh-bounds"):
        dataset = _random_dataset(rng, holes=bool(rng.random() < 0.5))
        _ts, vh = hourly_variability(dataset, PAIR)
        if vh.size:
            assert float(vh.min()) >= 0.0
            assert float(vh.max()) <= 1.0


def test_property_max_hourly_equals_daily():
    """max over a day of V_H(s, t) == V(s, d): both normalise by the
    day's peak, and the worst hour is the day's trough."""
    for rng in _case_rngs("vh-vs-vsd"):
        dataset = _random_dataset(rng)
        records = {r.day_index: r for r in detect(dataset).day_records}
        ts, vh = hourly_variability(dataset, PAIR)
        day_idx = ((ts - dataset.start_ts) // DAY).astype(int)
        for day in np.unique(day_idx):
            assert day in records
            worst = float(vh[day_idx == day].max())
            assert worst == pytest.approx(records[day].variability)


def test_property_short_days_are_guarded():
    """Days thinned below the sample floor contribute nothing."""
    for rng in _case_rngs("min-samples"):
        dataset = _random_dataset(rng, days=1, holes=True)
        n_kept = len(dataset)
        records = detect(dataset).day_records
        if n_kept < MIN_SAMPLES_PER_DAY:
            assert records == []
            _ts, vh = hourly_variability(dataset, PAIR)
            assert vh.size == 0


# ----------------------------------------------------------------------
# billing monotonicity


def test_property_billing_monotone_under_added_egress():
    for rng in _case_rngs("billing"):
        costs = CostTracker()
        previous = costs.total_usd
        for _ in range(20):
            tier = (NetworkTier.PREMIUM if rng.random() < 0.5
                    else NetworkTier.STANDARD)
            costs.charge_egress(float(rng.uniform(0, 5e9)), tier)
            assert costs.total_usd >= previous
            previous = costs.total_usd
        by_category = costs.spend
        assert by_category["egress"] == pytest.approx(costs.total_usd)


def test_property_egress_price_monotone_in_bytes():
    for rng in _case_rngs("egress-price"):
        prices = CostTracker().prices
        a = float(rng.uniform(0, 1e10))
        b = a + float(rng.uniform(0, 1e10))
        for tier in NetworkTier:
            assert prices.egress_usd(b, tier) >= prices.egress_usd(a, tier)


# ----------------------------------------------------------------------
# bounded retries under arbitrary fault schedules


class _FlakyEngine:
    """Engine stub failing per a pre-drawn (arbitrary) schedule."""

    class _Result:
        total_bytes = 1_000_000

    def __init__(self, failures):
        self.failures = list(failures)
        self.attempts = 0
        self.injector = None

    def run(self, vm, server, ts):
        index = self.attempts
        self.attempts += 1
        if index < len(self.failures) and self.failures[index]:
            raise SpeedTestError(f"scheduled failure #{index}")
        return self._Result()


def test_property_retry_count_bounded():
    for rng in _case_rngs("retry-bound"):
        max_retries = int(rng.integers(0, 6))
        # Any failure schedule at all, including "always fails".
        failures = [bool(rng.random() < 0.7) for _ in range(max_retries + 1)]
        engine = _FlakyEngine(failures)
        plan = FaultPlan(max_retries=max_retries)
        browser = HeadlessBrowser(engine, max_retries=max_retries,
                                  backoff=plan.backoff_s)
        try:
            artefacts = browser.run_test(object(), object(),
                                         float(CAMPAIGN_START))
        except SpeedTestError:
            # Budget exhausted: every allowed attempt was made.
            assert engine.attempts == max_retries + 1
            assert all(failures)
        else:
            assert artefacts.retried == (engine.attempts > 1)
        assert engine.attempts <= max_retries + 1


def test_property_backoff_schedule_is_increasing():
    for rng in _case_rngs("backoff"):
        plan = FaultPlan(backoff_base_s=float(rng.uniform(0.5, 30.0)),
                         backoff_factor=float(rng.uniform(1.0, 3.0)))
        delays = [plan.backoff_s(k) for k in range(5)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(plan.backoff_base_s)
