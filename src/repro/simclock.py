"""Simulated time.

The paper's campaign ran hourly cron jobs from May through September
2020.  Re-running five months in wall-clock time is obviously not an
option, so all components take time as an explicit simulated timestamp
(UTC epoch seconds), and the campaign engine advances that timestamp
as fast as the simulation can compute.

Local time matters for the analysis: congestion probability is studied
in the *test server's* timezone ("we converted the timezone to the
location of the test servers").  :func:`local_hour` and
:func:`local_day_index` perform that conversion from a UTC offset.
"""

from __future__ import annotations

import datetime as _dt

from .units import DAY, HOUR

__all__ = [
    "CAMPAIGN_START",
    "CAMPAIGN_END",
    "DAY_EDGE_MARGIN_S",
    "EPOCH_WEEKDAY",
    "utc_datetime",
    "hour_of_day",
    "day_index",
    "local_hour",
    "local_day_index",
    "is_weekend",
    "format_ts",
]

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)

#: Start of the paper's measurement campaign: 2020-05-01 00:00 UTC.
CAMPAIGN_START = int((_dt.datetime(2020, 5, 1, tzinfo=_dt.timezone.utc) - _EPOCH).total_seconds())

#: End of the campaign: 2020-10-01 00:00 UTC (exclusive), i.e. 153 days.
CAMPAIGN_END = int((_dt.datetime(2020, 10, 1, tzinfo=_dt.timezone.utc) - _EPOCH).total_seconds())

#: Seconds of slack kept from a local midnight before trusting integer
#: day arithmetic for the weekday; datetime rounds to microseconds, so
#: one full second is an enormous safety margin.
DAY_EDGE_MARGIN_S = 1.0

#: ``datetime.weekday()`` of day 0, 1970-01-01 (a Thursday).
EPOCH_WEEKDAY = 3


def utc_datetime(ts: float) -> _dt.datetime:
    """Return the aware UTC datetime for simulated epoch second *ts*."""
    return _EPOCH + _dt.timedelta(seconds=ts)


def hour_of_day(ts: float, utc_offset_hours: float = 0.0) -> int:
    """Hour of day (0-23) at *ts*, shifted by a UTC offset in hours."""
    shifted = ts + utc_offset_hours * HOUR
    return int(shifted // HOUR) % 24


def day_index(ts: float, origin: float = CAMPAIGN_START) -> int:
    """Whole days elapsed since *origin* (may be negative before it)."""
    return int((ts - origin) // DAY)


def local_hour(ts: float, utc_offset_hours: float) -> int:
    """Local hour of day for a vantage point at the given UTC offset."""
    return hour_of_day(ts, utc_offset_hours)


def local_day_index(ts: float, utc_offset_hours: float,
                    origin: float = CAMPAIGN_START) -> int:
    """Local calendar-day index for a vantage point at a UTC offset."""
    return day_index(ts + utc_offset_hours * HOUR, origin)


def is_weekend(ts: float, utc_offset_hours: float = 0.0) -> bool:
    """True when *ts* falls on Saturday/Sunday in the given local zone.

    Integer day arithmetic decides: the local day is ``floor(local /
    DAY)`` days after 1970-01-01.  Only an instant within
    :data:`DAY_EDGE_MARGIN_S` of a local midnight, where datetime's
    microsecond rounding could carry it across, asks ``datetime``.
    """
    local = ts + utc_offset_hours * HOUR
    day = local // DAY
    into = local - day * DAY
    if DAY_EDGE_MARGIN_S < into < DAY - DAY_EDGE_MARGIN_S:
        return (int(day) + EPOCH_WEEKDAY) % 7 >= 5
    return utc_datetime(local).weekday() >= 5


def format_ts(ts: float, utc_offset_hours: float = 0.0) -> str:
    """Human-readable ``YYYY-MM-DD HH:MM`` rendering of *ts*."""
    when = utc_datetime(ts + utc_offset_hours * HOUR)
    return when.strftime("%Y-%m-%d %H:%M")
