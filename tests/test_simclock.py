"""Simulated clock and local-time helpers."""

from repro import simclock
from repro.units import DAY, HOUR


def test_campaign_window():
    start = simclock.utc_datetime(simclock.CAMPAIGN_START)
    end = simclock.utc_datetime(simclock.CAMPAIGN_END)
    assert (start.year, start.month, start.day) == (2020, 5, 1)
    assert (end.year, end.month, end.day) == (2020, 10, 1)
    assert (simclock.CAMPAIGN_END - simclock.CAMPAIGN_START) == 153 * DAY


def test_hour_of_day_with_offset():
    ts = simclock.CAMPAIGN_START  # 00:00 UTC
    assert simclock.hour_of_day(ts) == 0
    assert simclock.hour_of_day(ts, utc_offset_hours=-8) == 16
    assert simclock.hour_of_day(ts, utc_offset_hours=5.5) == 5


def test_local_day_index_shifts_at_midnight():
    # 2020-05-01 02:00 UTC is still 2020-04-30 in Pacific time.
    ts = simclock.CAMPAIGN_START + 2 * HOUR
    assert simclock.day_index(ts) == 0
    assert simclock.local_day_index(ts, -8) == -1


def test_is_weekend():
    # 2020-05-01 was a Friday; 2020-05-02 a Saturday.
    friday = simclock.CAMPAIGN_START
    saturday = friday + DAY
    assert not simclock.is_weekend(friday)
    assert simclock.is_weekend(saturday)


def test_format_ts():
    text = simclock.format_ts(simclock.CAMPAIGN_START)
    assert text == "2020-05-01 00:00"
    text_local = simclock.format_ts(simclock.CAMPAIGN_START, -8)
    assert text_local == "2020-04-30 16:00"
