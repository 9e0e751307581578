"""TCP bulk-transfer throughput model.

We use the PFTK model (Padhye, Firoiu, Towsley, Kurose: "Modeling TCP
Throughput: A Simple Model and its Empirical Validation") with the
Mathis square-root law as its small-loss limit.  Web speed tests open
several parallel connections; :func:`multiflow_throughput_mbps`
aggregates the per-flow model and caps the aggregate at the available
path bandwidth.

The model intentionally keeps only first-order effects - loss rate,
RTT, MSS, flow count, receive-window ceiling - because the paper's
phenomena (peak-hour collapse, premium-tier loss inflation, the
200-600 Mbps healthy band) are all driven by those.
"""

from __future__ import annotations

import math

from .. import obs
from ..errors import ValidationError
from ..units import MSS_BYTES, bytes_per_sec_to_mbps, ms_to_s

__all__ = [
    "pftk_throughput_mbps",
    "multiflow_throughput_mbps",
]

#: Receiver window: 4 MiB, a typical modern autotuned ceiling.
DEFAULT_RWND_BYTES = 4 * 1024 * 1024

#: Default initial retransmission timeout used by the PFTK timeout term.
_RTO_MIN_S = 0.2

#: Loss below this is treated as effectively lossless: the flow is
#: window- or bandwidth-limited instead.
_MIN_LOSS = 1e-7


def pftk_throughput_mbps(rtt_ms: float, loss_rate: float) -> float:
    """Single-flow PFTK steady-state throughput including the timeout
    regime, capped by the receiver window.

    ``B = min(Wmax/RTT, 1 / (RTT*sqrt(2bp/3) + T0*min(1, 3*sqrt(3bp/8))*p*(1+32p^2)))``
    in segments per second, with b = 2 (delayed ACKs).
    """
    if rtt_ms <= 0:
        raise ValidationError(f"rtt must be positive, got {rtt_ms}")
    if not 0 <= loss_rate < 1:
        raise ValidationError(f"loss_rate must be in [0, 1), got {loss_rate}")
    rtt_s = ms_to_s(rtt_ms)
    window_limit_bytes_per_s = DEFAULT_RWND_BYTES / rtt_s
    p = loss_rate
    if p < _MIN_LOSS:
        return bytes_per_sec_to_mbps(window_limit_bytes_per_s)
    b = 2.0
    t0 = max(_RTO_MIN_S, 4.0 * rtt_s)
    denom = (rtt_s * math.sqrt(2.0 * b * p / 3.0)
             + t0 * min(1.0, 3.0 * math.sqrt(3.0 * b * p / 8.0)) * p * (1.0 + 32.0 * p * p))
    segments_per_s = 1.0 / denom
    rate_bytes = min(window_limit_bytes_per_s, segments_per_s * MSS_BYTES)
    return bytes_per_sec_to_mbps(rate_bytes)


def multiflow_throughput_mbps(rtt_ms: float, loss_rate: float,
                              n_flows: int,
                              path_avail_mbps: float) -> float:
    """Aggregate throughput of *n_flows* parallel connections on a path.

    The aggregate is the per-flow PFTK rate times the flow count, capped
    by the available path bandwidth: parallel flows multiply the
    loss-limited rate (each flow suffers the loss process independently)
    but cannot exceed what the bottleneck leaves over.
    """
    if n_flows < 1:
        raise ValidationError(f"n_flows must be >= 1, got {n_flows}")
    if path_avail_mbps < 0:
        raise ValidationError(f"path_avail_mbps must be >= 0, got {path_avail_mbps}")
    with obs.span("netsim.tcp.transfer"):
        per_flow = pftk_throughput_mbps(rtt_ms, loss_rate)
        aggregate = min(per_flow * n_flows, path_avail_mbps)
    obs.inc("netsim.tcp.transfers")
    obs.observe("netsim.tcp.throughput_mbps", aggregate)
    return aggregate
