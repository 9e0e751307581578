"""Vectorized twins of the scalar hot-path math.

Every function here reproduces its scalar counterpart *bit for bit*:
the numpy expressions use the same operations in the same association
order, and only IEEE-754 correctly-rounded primitives (``+ - * /``,
``sqrt``, ``min``/``max``, ``rint``, ``abs``, ``fmod``) plus libm
``cos`` - which numpy and :mod:`math` both delegate to the platform
libm, elementwise-identical (the oracle tests in
``tests/test_shard.py`` assert 0-ULP drift over dense grids).

Twinned scalar sources:

* :func:`repro.netsim.tcp.pftk_throughput_mbps` /
  :func:`~repro.netsim.tcp.multiflow_throughput_mbps`
* :meth:`repro.netsim.linkstate.LinkStateEvaluator.residual_mbps` /
  ``loss_rate`` / ``queue_delay_ms``
* :meth:`repro.netsim.traffic.DiurnalProfile.mean_utilization` (one
  profile per element, with :func:`repro.simclock.is_weekend` as
  :func:`batch_weekend_mask`, integer weekday arithmetic)
* :func:`repro.speedtest.protocol.flows_for_rtt`

Known exact-equivalence subtleties, all handled here:

* Python ``%`` on positive floats equals ``np.fmod`` (not ``np.mod``).
* ``int(x // HOUR)`` on non-negative floats equals
  ``np.floor_divide(...).astype(int64)``.
* ``datetime`` rounds to microseconds, so the integer weekday
  arithmetic decides only elements more than
  :data:`repro.simclock.DAY_EDGE_MARGIN_S` from a local midnight; the
  few within it fall back to per-element scalar calls
  (:func:`~repro.simclock.is_weekend` applies the same rule).
* Powers appear in multiplication form (``u*u``), matching the scalar
  code, because ``**`` routes through libm ``pow``.
* A branch the scalar code takes for some elements (a diurnal bump's
  window, the loss ramp) is computed for every element and picked with
  ``np.where``: elementwise ops give each picked element the value the
  branch computes for it alone, without boolean-mask gathers.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ValidationError
from ..netsim.linkstate import (_CONTESTED_SHARE, _FLOOR_LOSS,
                                _LOSS_AT_CAPACITY, _LOSS_ONSET,
                                _QUEUE_BASE_MS, _QUEUE_CAP_MS, _SUBONSET_COEF)
from ..netsim.tcp import DEFAULT_RWND_BYTES, _MIN_LOSS, _RTO_MIN_S
from ..netsim.topology import LinkKind
from ..simclock import DAY_EDGE_MARGIN_S, EPOCH_WEEKDAY, is_weekend
from ..speedtest.protocol import FLOW_SCALE_RTT_MS, MAX_FLOWS, N_FLOWS
from ..units import DAY, HOUR, MSS_BYTES, bytes_per_sec_to_mbps, ms_to_s

__all__ = [
    "batch_flows_for_rtt",
    "batch_loss_rate",
    "batch_mean_utilization_grid",
    "batch_multiflow_throughput_mbps",
    "batch_pftk_throughput_mbps",
    "batch_queue_delay_ms",
    "batch_residual_mbps",
    "batch_weekend_mask",
]


# ----------------------------------------------------------------------
# TCP model


def batch_pftk_throughput_mbps(rtt_ms: np.ndarray, loss_rate: np.ndarray
                               ) -> np.ndarray:
    """Vector twin of :func:`repro.netsim.tcp.pftk_throughput_mbps`."""
    rtt_ms = np.asarray(rtt_ms, dtype=np.float64)
    p = np.asarray(loss_rate, dtype=np.float64)
    if np.any(rtt_ms <= 0):
        raise ValidationError("rtt must be positive in every element")
    if np.any((p < 0) | (p >= 1)):
        raise ValidationError("loss_rate must be in [0, 1) in every element")
    rtt_s = ms_to_s(rtt_ms)
    window_limit_bytes_per_s = DEFAULT_RWND_BYTES / rtt_s
    b = 2.0
    t0 = np.maximum(_RTO_MIN_S, 4.0 * rtt_s)
    with np.errstate(divide="ignore"):
        denom = (rtt_s * np.sqrt(2.0 * b * p / 3.0)
                 + t0 * np.minimum(1.0, 3.0 * np.sqrt(3.0 * b * p / 8.0))
                 * p * (1.0 + 32.0 * p * p))
        segments_per_s = 1.0 / denom
    rate_bytes = np.minimum(window_limit_bytes_per_s,
                            segments_per_s * MSS_BYTES)
    return np.where(p < _MIN_LOSS,
                    bytes_per_sec_to_mbps(window_limit_bytes_per_s),
                    bytes_per_sec_to_mbps(rate_bytes))


def batch_multiflow_throughput_mbps(rtt_ms: np.ndarray,
                                    loss_rate: np.ndarray,
                                    n_flows: np.ndarray,
                                    path_avail_mbps: np.ndarray
                                    ) -> np.ndarray:
    """Vector twin of :func:`repro.netsim.tcp.multiflow_throughput_mbps`."""
    n_flows = np.asarray(n_flows, dtype=np.int64)
    path_avail_mbps = np.asarray(path_avail_mbps, dtype=np.float64)
    if np.any(n_flows < 1):
        raise ValidationError("n_flows must be >= 1 in every element")
    if np.any(path_avail_mbps < 0):
        raise ValidationError("path_avail_mbps must be >= 0 in every element")
    per_flow = batch_pftk_throughput_mbps(rtt_ms, loss_rate)
    return np.minimum(per_flow * n_flows, path_avail_mbps)


def batch_flows_for_rtt(rtt_ms: np.ndarray) -> np.ndarray:
    """Vector twin of :func:`repro.speedtest.protocol.flows_for_rtt`
    (int64)."""
    rtt_ms = np.asarray(rtt_ms, dtype=np.float64)
    if np.any(rtt_ms <= 0):
        raise ValidationError("rtt must be positive in every element")
    scale = np.maximum(1.0, rtt_ms / FLOW_SCALE_RTT_MS)
    flows = np.rint(N_FLOWS * scale).astype(np.int64)
    return np.minimum(MAX_FLOWS, flows)


# ----------------------------------------------------------------------
# link state


def batch_residual_mbps(capacity_mbps,
                        utilization: np.ndarray) -> np.ndarray:
    """Vector twin of :meth:`LinkStateEvaluator.residual_mbps`.

    *capacity_mbps* may be a scalar (one link) or an array aligned with
    *utilization* (a mixed-link flat batch); broadcasting is elementwise
    so both shapes produce bit-identical per-element results.
    """
    if np.any(np.asarray(capacity_mbps) <= 0):
        raise ValidationError(f"capacity must be positive: {capacity_mbps}")
    if np.any(utilization < 0):
        raise ValidationError("utilization must be >= 0 in every element")
    free = capacity_mbps * (1.0 - utilization)
    over = np.maximum(1.0, utilization)
    contested = capacity_mbps * _CONTESTED_SHARE / (over * over)
    return np.maximum(free, contested)


def batch_loss_rate(utilization: np.ndarray,
                    kind: Optional[LinkKind] = None, *,
                    floor=None) -> np.ndarray:
    """Vector twin of :meth:`LinkStateEvaluator.loss_rate`.

    Pass *kind* for a single-link batch, or ``floor=`` (scalar or
    per-element array of ``_FLOOR_LOSS[kind]`` values) for a flat batch
    spanning links of different kinds.
    """
    if np.any(utilization < 0):
        raise ValidationError("utilization must be >= 0 in every element")
    if kind is not None:
        floor = _FLOOR_LOSS[kind]
    if floor is None:
        raise ValidationError("batch_loss_rate needs a kind or a floor")
    u = utilization
    u_sq = u * u
    burst = _SUBONSET_COEF * (u_sq * u_sq)
    out = floor + burst
    ramp = (u - _LOSS_ONSET) / (1.0 - _LOSS_ONSET)
    out = np.where((u > _LOSS_ONSET) & (u <= 1.0),
                   out + _LOSS_AT_CAPACITY * ramp * ramp, out)
    over = u > 1.0
    if np.any(over):
        overflow = (u[over] - 1.0) / u[over]
        out[over] = np.minimum(0.9, out[over] + _LOSS_AT_CAPACITY + overflow)
    return out


def batch_queue_delay_ms(utilization: np.ndarray,
                         kind: Optional[LinkKind] = None, *,
                         base=None, cap=None) -> np.ndarray:
    """Vector twin of :meth:`LinkStateEvaluator.queue_delay_ms`.

    Pass *kind* for a single-link batch, or ``base=``/``cap=`` (scalar
    or per-element arrays of the per-kind queue constants) for a flat
    mixed-link batch.
    """
    if np.any(utilization < 0):
        raise ValidationError("utilization must be >= 0 in every element")
    if kind is not None:
        base = _QUEUE_BASE_MS[kind]
        cap = _QUEUE_CAP_MS[kind]
    if base is None or cap is None:
        raise ValidationError("batch_queue_delay_ms needs a kind or "
                              "base and cap")
    u = np.minimum(utilization, 0.995)
    mm1 = base * u / (1.0 - u)
    return np.where(utilization >= 1.0, cap, np.minimum(cap, mm1))


# ----------------------------------------------------------------------
# traffic model


def batch_weekend_mask(ts: np.ndarray,
                       utc_offset_hours: np.ndarray) -> np.ndarray:
    """Per-element :func:`repro.simclock.is_weekend` over mixed offsets.

    One pass of integer day arithmetic decides every element: the local
    day is ``floor((ts + offset * HOUR) / DAY)`` days after 1970-01-01,
    a Thursday.  Only an element within :data:`DAY_EDGE_MARGIN_S` of a
    local midnight, where datetime's microsecond rounding could carry it
    across, falls back to the scalar call.
    """
    ts = np.asarray(ts, dtype=np.float64)
    offset = np.asarray(utc_offset_hours, dtype=np.float64)
    local = ts + offset * HOUR
    day = np.floor_divide(local, DAY)
    weekend = (day.astype(np.int64) + EPOCH_WEEKDAY) % 7 >= 5
    # Seconds past local midnight, within the margin of either end.
    into = local - day * DAY
    edge = np.abs(into - 0.5 * DAY) >= 0.5 * DAY - DAY_EDGE_MARGIN_S
    if np.any(edge):
        weekend[edge] = [is_weekend(t, o) for t, o
                         in zip(ts[edge].tolist(), offset[edge].tolist())]
    return weekend


def batch_mean_utilization_grid(ts: np.ndarray, base: np.ndarray,
                                weekend_factor: np.ndarray,
                                utc_offset_hours: np.ndarray,
                                bump_center: np.ndarray,
                                bump_width: np.ndarray,
                                bump_amplitude: np.ndarray) -> np.ndarray:
    """Flat-batch twin of :meth:`DiurnalProfile.mean_utilization`.

    Every element carries its own profile parameters, so one call
    evaluates a whole hour's worth of *different* links.  Bump columns
    are padded (``amplitude 0, width 1``): a padded slot contributes an
    exact ``+0.0``, which leaves the running sum bit-identical to the
    scalar ``sum()`` over that profile's real bumps.
    """
    ts = np.asarray(ts, dtype=np.float64)
    local = np.fmod(ts / HOUR + utc_offset_hours, 24.0)
    # Every bump column at once, elementwise; the sum over a profile's
    # bumps then adds them one at a time in bump order.
    delta = np.abs(local[:, None] - bump_center)
    delta = np.minimum(delta, 24.0 - delta)
    value = np.where(delta < bump_width,
                     bump_amplitude * 0.5
                     * (1.0 + np.cos(math.pi * delta / bump_width)), 0.0)
    bump_sum = np.zeros(ts.shape)
    for j in range(value.shape[1]):
        bump_sum = bump_sum + value[:, j]
    load = base + bump_sum
    weekend = batch_weekend_mask(ts, utc_offset_hours)
    load = np.where(weekend, load * weekend_factor, load)
    return np.maximum(0.0, load)
