"""TCP throughput model properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.tcp import multiflow_throughput_mbps, pftk_throughput_mbps
from repro.units import MSS_BYTES, bytes_per_sec_to_mbps

rtts = st.floats(min_value=1.0, max_value=500.0)
losses = st.floats(min_value=1e-6, max_value=0.3)


def _mathis_mbps(rtt_ms, loss_rate):
    """Mathis et al. square-root law: ``MSS/RTT * sqrt(3/2) / sqrt(p)``."""
    return bytes_per_sec_to_mbps(
        MSS_BYTES / (rtt_ms / 1000.0) * (1.5 / loss_rate) ** 0.5)


@given(rtts, losses)
def test_pftk_below_mathis(rtt, loss):
    """PFTK (with timeouts, b=2) never exceeds the Mathis bound."""
    assert pftk_throughput_mbps(rtt, loss) <= _mathis_mbps(rtt, loss) * 1.01


@given(rtts, losses)
def test_throughput_decreasing_in_loss(rtt, loss):
    faster = pftk_throughput_mbps(rtt, loss)
    slower = pftk_throughput_mbps(rtt, min(0.9, loss * 2 + 1e-6))
    assert slower <= faster + 1e-9


@given(rtts, losses)
def test_throughput_decreasing_in_rtt(rtt, loss):
    near = pftk_throughput_mbps(rtt, loss)
    far = pftk_throughput_mbps(rtt * 2, loss)
    assert far <= near + 1e-9


def test_zero_loss_window_limited():
    # 4 MiB rwnd over 100 ms = ~335 Mbps.
    rate = pftk_throughput_mbps(100.0, 0.0)
    assert rate == pytest.approx(4 * 1024 * 1024 / 0.1 * 8 / 1e6, rel=0.01)


def test_validation():
    with pytest.raises(ValueError):
        pftk_throughput_mbps(0.0, 0.01)
    with pytest.raises(ValueError):
        pftk_throughput_mbps(10.0, 1.0)


def test_multiflow_scales_until_path_cap():
    one = multiflow_throughput_mbps(50.0, 1e-4, 1, 1e9)
    many = multiflow_throughput_mbps(50.0, 1e-4, 8, 1e9)
    assert many == pytest.approx(8 * one, rel=1e-6)
    capped = multiflow_throughput_mbps(50.0, 1e-4, 8, 100.0)
    assert capped == 100.0


def test_multiflow_validation():
    with pytest.raises(ValueError):
        multiflow_throughput_mbps(50.0, 1e-4, 0, 100.0)
    with pytest.raises(ValueError):
        multiflow_throughput_mbps(50.0, 1e-4, 4, -1.0)


@given(rtts, losses, st.integers(min_value=1, max_value=64),
       st.floats(min_value=1.0, max_value=1e5))
def test_multiflow_never_exceeds_path(rtt, loss, flows, avail):
    assert multiflow_throughput_mbps(rtt, loss, flows, avail) <= avail
