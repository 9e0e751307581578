"""Diurnal traffic profiles and the utilization model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.traffic import (
    DiurnalBump,
    DiurnalProfile,
    UtilizationModel,
)
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

from .traffic_profiles import evening_profile, peak_mean


def test_bump_validation():
    with pytest.raises(ValueError):
        DiurnalBump(25.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        DiurnalBump(12.0, 0.0, 0.5)


def test_bump_peak_and_support():
    bump = DiurnalBump(center_hour=21.0, width_hours=4.0, amplitude=0.6)
    assert bump.value(21.0) == pytest.approx(0.6)
    assert bump.value(17.0) == 0.0
    assert bump.value(1.0) == 0.0
    assert 0 < bump.value(19.0) < 0.6


def test_bump_periodic_wraparound():
    bump = DiurnalBump(center_hour=23.0, width_hours=3.0, amplitude=1.0)
    # 1 am is 2 hours past 11 pm across midnight.
    assert bump.value(1.0) == pytest.approx(bump.value(21.0))
    assert bump.value(1.0) > 0


@given(st.floats(min_value=0, max_value=23.99),
       st.floats(min_value=0.5, max_value=12),
       st.floats(min_value=0, max_value=2),
       st.floats(min_value=0, max_value=23.99))
def test_bump_bounded_property(center, width, amp, hour):
    value = DiurnalBump(center, width, amp).value(hour)
    assert 0.0 <= value <= amp + 1e-12


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(base=-0.1)
    with pytest.raises(ValueError):
        DiurnalProfile(base=0.2, noise_sigma=-1)


def test_profile_mean_utilization_peaks_at_bump():
    profile = evening_profile(utc_offset_hours=0.0)
    # 21:00 local on a weekday (2020-05-04 was a Monday).
    monday = CAMPAIGN_START + 3 * DAY
    at_peak = profile.mean_utilization(monday + 21 * HOUR)
    at_trough = profile.mean_utilization(monday + 4 * HOUR)
    assert at_peak > at_trough
    assert at_peak == pytest.approx(peak_mean(profile), rel=0.05)


def test_profile_weekend_factor():
    profile = DiurnalProfile(base=0.5, weekend_factor=0.8)
    friday = CAMPAIGN_START  # 2020-05-01
    saturday = friday + DAY
    assert profile.mean_utilization(saturday) == pytest.approx(
        0.8 * profile.mean_utilization(friday))


def test_profile_timezone_shift():
    profile_utc = evening_profile(utc_offset_hours=0.0)
    profile_pst = evening_profile(utc_offset_hours=-8.0)
    ts = CAMPAIGN_START + 3 * DAY + 21 * HOUR  # 21:00 UTC
    # For the PST link, 21:00 UTC is 13:00 local - off the evening peak.
    assert profile_utc.mean_utilization(ts) > \
        profile_pst.mean_utilization(ts)


def test_utilization_model_deterministic():
    m1 = UtilizationModel(SeedTree(9), CAMPAIGN_START)
    m2 = UtilizationModel(SeedTree(9), CAMPAIGN_START)
    profile = DiurnalProfile.quiet(0.3)
    for m in (m1, m2):
        m.set_profile(17, 0, profile)
    ts = CAMPAIGN_START + 5 * HOUR
    assert m1.utilization(17, 0, ts) == m2.utilization(17, 0, ts)


def test_utilization_model_order_independent():
    m1 = UtilizationModel(SeedTree(9), CAMPAIGN_START)
    m2 = UtilizationModel(SeedTree(9), CAMPAIGN_START)
    profile = DiurnalProfile.quiet(0.3)
    for m in (m1, m2):
        m.set_profile(1, 0, profile)
        m.set_profile(2, 0, profile)
    a2 = m1.utilization(2, 0, CAMPAIGN_START)
    _ = m2.utilization(1, 0, CAMPAIGN_START)
    b2 = m2.utilization(2, 0, CAMPAIGN_START)
    assert a2 == b2


def test_utilization_nonnegative_and_noisy():
    model = UtilizationModel(SeedTree(3), CAMPAIGN_START)
    model.set_profile(5, 1, DiurnalProfile(base=0.02, noise_sigma=0.05))
    values = [model.utilization(5, 1, CAMPAIGN_START + h * HOUR)
              for h in range(200)]
    assert all(v >= 0.0 for v in values)
    assert np.std(values) > 0.0


def test_utilization_directions_independent():
    model = UtilizationModel(SeedTree(3), CAMPAIGN_START)
    model.set_profile_both(5, DiurnalProfile(base=0.3, noise_sigma=0.05))
    ts = CAMPAIGN_START + 7 * HOUR
    assert model.utilization(5, 0, ts) != model.utilization(5, 1, ts)


def test_utilization_default_profile():
    model = UtilizationModel(SeedTree(3), CAMPAIGN_START)
    # Unprofiled links fall back to a quiet default.
    value = model.utilization(99, 0, CAMPAIGN_START)
    assert 0.0 <= value < 0.9


def test_set_profile_validates_direction():
    model = UtilizationModel(SeedTree(3), CAMPAIGN_START)
    with pytest.raises(ValueError):
        model.set_profile(1, 2, DiurnalProfile.quiet())


# ----------------------------------------------------------------------
# lazily grown noise: byte-identical to one full-length draw


def _one_shot_noise(seed, link_id, direction, sigma):
    """The year of deviates one ``normal(0, sigma, NOISE_HOURS)`` call
    draws from the link direction's stream."""
    gen = SeedTree(seed).child("utilization-noise").generator(
        f"link-{link_id}-dir-{direction}")
    return gen.normal(0.0, sigma, UtilizationModel.NOISE_HOURS)


def _assert_prefix(held, want):
    assert np.array_equal(held.view(np.uint64),
                          want[:len(held)].view(np.uint64))


def _assert_reads(model, link_id, direction, hours, want):
    """utilization() at each hour is max(0, mean + want[hour mod wrap]),
    bit for bit."""
    profile = model.profile(link_id, direction)
    for hour in hours:
        ts = CAMPAIGN_START + hour * HOUR
        expect = max(0.0, profile.mean_utilization(ts)
                     + float(want[hour % UtilizationModel.NOISE_HOURS]))
        got = model.utilization(link_id, direction, ts)
        assert np.float64(got).view(np.uint64) == \
            np.float64(expect).view(np.uint64)


def test_lazy_noise_read_out_of_order_matches_one_draw():
    model = UtilizationModel(SeedTree(5), CAMPAIGN_START)
    model.set_profile_both(7, DiurnalProfile(base=0.3, noise_sigma=0.05))
    forward = _one_shot_noise(5, 7, 0, 0.05)
    _assert_reads(model, 7, 0, [5000, 3], forward)
    held = model.noise_array(7, 0, 1)
    assert 5000 < len(held) <= 2 * 5001
    _assert_prefix(held, forward)

    reverse = _one_shot_noise(5, 7, 1, 0.05)
    _assert_reads(model, 7, 1, [0], reverse)
    assert len(model.noise_array(7, 1, 1)) == \
        UtilizationModel.FIRST_DRAW_HOURS
    last = UtilizationModel.NOISE_HOURS - 1
    _assert_reads(model, 7, 1, [last], reverse)
    held = model.noise_array(7, 1, 1)
    assert np.array_equal(held.view(np.uint64), reverse.view(np.uint64))


def test_lazy_noise_wraps_at_noise_hours():
    model = UtilizationModel(SeedTree(5), CAMPAIGN_START)
    model.set_profile(7, 0, DiurnalProfile(base=0.3, noise_sigma=0.05))
    want = _one_shot_noise(5, 7, 0, 0.05)
    wrap = UtilizationModel.NOISE_HOURS
    _assert_reads(model, 7, 0, [wrap + 5, 2 * wrap + 20, 5], want)
    # Reads past the wrap index the start of the stream: nothing beyond
    # the first day is drawn.
    held = model.noise_array(7, 0, 1)
    assert len(held) == UtilizationModel.FIRST_DRAW_HOURS
    _assert_prefix(held, want)
    # No request draws past the wrap length.
    assert len(model.noise_array(7, 0, 10 * wrap)) == wrap


def test_set_profile_after_partial_draw_restarts_the_stream():
    model = UtilizationModel(SeedTree(5), CAMPAIGN_START)
    model.set_profile(7, 0, DiurnalProfile(base=0.3, noise_sigma=0.05))
    _assert_reads(model, 7, 0, [30], _one_shot_noise(5, 7, 0, 0.05))
    assert len(model.noise_array(7, 0, 1)) == \
        2 * UtilizationModel.FIRST_DRAW_HOURS
    model.set_profile(7, 0, DiurnalProfile(base=0.3, noise_sigma=0.08))
    want = _one_shot_noise(5, 7, 0, 0.08)
    _assert_reads(model, 7, 0, [2, 30, 100], want)
    _assert_prefix(model.noise_array(7, 0, 1), want)
