"""Units and physical constants used throughout the simulation.

Internally the simulator works in a small set of base units:

* bit rates in **megabits per second** (Mbps),
* data volumes in **bytes**,
* time in **seconds** (simulated epoch seconds; see :mod:`repro.simclock`),
* distances in **kilometres**,
* latency in **milliseconds**.

This module centralises the conversion helpers so magic constants do not
leak into the rest of the code base.
"""

from __future__ import annotations
from .errors import ValidationError

__all__ = [
    "KBIT", "MBIT", "GBIT",
    "KB", "MB", "GB",
    "SECOND", "MINUTE", "HOUR", "DAY", "WEEK",
    "MSS_BYTES",
    "FIBER_KM_PER_MS", "ROUTE_INFLATION",
    "mbps_to_bytes_per_sec", "bytes_per_sec_to_mbps",
    "bytes_to_gb",
    "ms_to_s", "s_to_ms",
    "mbps", "gbps",
    "transferred_bytes",
]

# Bit-rate multipliers, expressed in Mbps.
KBIT = 1.0 / 1000.0
MBIT = 1.0
GBIT = 1000.0

# Data volumes in bytes (decimal, matching how clouds bill egress).
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

# Durations in seconds.
SECOND = 1
MINUTE = 60
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY

#: TCP maximum segment size used by the throughput model (typical
#: 1500-byte MTU minus 40 bytes of IP+TCP headers).
MSS_BYTES = 1460

#: Light propagates in fibre at roughly 2/3 c ~= 200 km per millisecond.
FIBER_KM_PER_MS = 200.0

#: Real routes are longer than great-circle distance; measurement studies
#: typically observe 1.5-2.5x inflation.  We use a mid value as default.
ROUTE_INFLATION = 1.8


def mbps(value: float) -> float:
    """Return *value* megabits/s expressed in the Mbps base unit."""
    return value * MBIT


def gbps(value: float) -> float:
    """Return *value* gigabits/s expressed in the Mbps base unit."""
    return value * GBIT


def mbps_to_bytes_per_sec(rate_mbps: float) -> float:
    """Convert a bit rate in Mbps to bytes per second."""
    return rate_mbps * 1e6 / 8.0


def bytes_per_sec_to_mbps(rate_bps: float) -> float:
    """Convert bytes per second to a bit rate in Mbps."""
    return rate_bps * 8.0 / 1e6


def ms_to_s(value_ms: float) -> float:
    """Convert milliseconds to seconds."""
    return value_ms / 1000.0


def s_to_ms(value_s: float) -> float:
    """Convert seconds to milliseconds."""
    return value_s * 1000.0


def bytes_to_gb(n_bytes: float) -> float:
    """Convert bytes to decimal gigabytes (how egress is billed)."""
    return n_bytes / GB


def transferred_bytes(rate_mbps: float, duration_s: float) -> float:
    """Bytes moved at *rate_mbps* over *duration_s* seconds."""
    if duration_s < 0:
        raise ValidationError(f"duration must be >= 0, got {duration_s}")
    return mbps_to_bytes_per_sec(rate_mbps) * duration_s
