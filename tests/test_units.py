"""Unit conversion tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


def test_rate_constructors():
    assert units.mbps(5) == 5.0
    assert units.gbps(1) == 1000.0


def test_mbps_to_bytes_roundtrip():
    rate = 123.4
    assert units.bytes_per_sec_to_mbps(
        units.mbps_to_bytes_per_sec(rate)) == pytest.approx(rate)


def test_gb_conversions():
    assert units.bytes_to_gb(1_000_000_000) == 1.0
    assert units.bytes_to_gb(2_500_000_000) == 2.5


def test_transferred_bytes_rejects_negative_duration():
    with pytest.raises(ValueError):
        units.transferred_bytes(10.0, -1.0)


def test_transferred_bytes_value():
    # 100 Mbps for 15 s = 187.5 MB.
    assert units.transferred_bytes(100.0, 15.0) == pytest.approx(187_500_000)


@given(st.floats(min_value=1e-3, max_value=1e5),
       st.floats(min_value=1.0, max_value=1e12))
def test_transfer_roundtrip_property(rate, n_bytes):
    duration = n_bytes / units.mbps_to_bytes_per_sec(rate)
    assert units.transferred_bytes(rate, duration) == pytest.approx(
        n_bytes, rel=1e-9)


def test_duration_constants_consistent():
    assert units.MINUTE == 60
    assert units.HOUR == 60 * units.MINUTE
    assert units.DAY == 24 * units.HOUR
    assert units.WEEK == 7 * units.DAY
