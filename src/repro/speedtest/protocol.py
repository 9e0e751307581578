"""The web speed test protocol.

A test against one server runs three phases, like the real web UIs:

1. **latency** - a burst of small HTTP probes; the UI reports the
   minimum observed RTT.
2. **download** - the server pushes bulk data over several parallel
   TCP connections for a fixed duration; the UI reports the average
   goodput of the measured window.
3. **upload** - the client pushes data the other way.

The engine computes each phase from the tier-correct routes and the
instantaneous path state, applies the endpoint constraints (tc shaping
on the VM NIC, machine-type CPU ceiling, server access capacity - which
is part of the routed path), and adds multiplicative measurement noise
so repeated tests scatter the way real web tests do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..cloud.api import CloudPlatform, Direction
from ..cloud.vm import VirtualMachine
from ..errors import SpeedTestError, TruncatedTransferError, ValidationError
from ..faults import FaultInjector
from ..netsim.pathmodel import PathMetrics
from ..netsim.routing import Route
from ..netsim.tcp import multiflow_throughput_mbps
from ..rng import SeedTree
from ..units import transferred_bytes
from .server import SpeedTestServer

__all__ = ["SpeedTestResult", "SpeedTestEngine", "flows_for_rtt"]


# Protocol parameters (match common web tests).
N_FLOWS = 24
PING_COUNT = 5
DOWNLOAD_DURATION_S = 15.0
UPLOAD_DURATION_S = 15.0
#: Multiplicative measurement noise (sigma of a lognormal-ish factor).
NOISE_SIGMA = 0.12
#: Latency probe jitter in ms (one-sided).
PING_JITTER_MS = 1.5
#: Probability a test fails outright (server busy, browser hiccup).
FAILURE_RATE = 0.002
#: Flow scaling: web tests add connections on long fat paths until
#: the pipe saturates (Ookla grows to dozens of streams).
MAX_FLOWS = 128
FLOW_SCALE_RTT_MS = 25.0
#: Wall time of one whole test: both bulk phases, the ping burst and
#: the page's setup.
TEST_DURATION_S = (DOWNLOAD_DURATION_S + UPLOAD_DURATION_S
                   + 0.2 * PING_COUNT + 3.0)


def flows_for_rtt(rtt_ms: float) -> int:
    """Connections the test opens for a path of the given RTT."""
    if rtt_ms <= 0:
        raise ValidationError(f"rtt must be positive, got {rtt_ms}")
    scale = max(1.0, rtt_ms / FLOW_SCALE_RTT_MS)
    return min(MAX_FLOWS, int(round(N_FLOWS * scale)))


@dataclass(frozen=True)
class SpeedTestResult:
    """What one completed test reports (web UI numbers + flow stats).

    ``download_loss_rate`` / ``upload_loss_rate`` are the packet loss
    rates CLASP's pipeline later recovers from the captured TCP flows -
    the web UI itself does not show them.
    """

    server_id: str
    vm_name: str
    ts: float
    latency_ms: float
    download_mbps: float
    upload_mbps: float
    download_loss_rate: float
    upload_loss_rate: float
    download_bytes: float
    upload_bytes: float
    duration_s: float
    cpu_utilization: float

    @property
    def total_bytes(self) -> float:
        return self.download_bytes + self.upload_bytes


class SpeedTestEngine:
    """Executes speed tests from cloud VMs against catalog servers.

    Randomness is drawn from one lazily created stream *per VM name*
    (label ``speedtest-<vm>``), so a VM's measurement-noise sequence
    depends only on its own test history - never on how tests from
    different VMs interleave.  That is what lets the vectorized batch
    planner precompute an hour lane by lane and still reproduce the
    scalar byte stream exactly.
    """

    def __init__(self, platform: CloudPlatform,
                 seeds: Optional[SeedTree] = None) -> None:
        self.platform = platform
        self._seeds = seeds or SeedTree(0)
        self._streams: Dict[str, np.random.Generator] = {}
        #: Set by the campaign runner when a fault plan is active.
        self.injector: Optional[FaultInjector] = None

    def stream_for(self, vm_name: str) -> np.random.Generator:
        """The VM's private noise stream (created on first use).

        Public because the vectorized batch planner consumes the same
        stream, in the same order, when it precomputes an hour's tests.
        """
        gen = self._streams.get(vm_name)
        if gen is None:
            gen = self._seeds.generator(f"speedtest-{vm_name}")
            self._streams[vm_name] = gen
        return gen

    # ------------------------------------------------------------------

    def run(self, vm: VirtualMachine, server: SpeedTestServer,
            ts: float) -> SpeedTestResult:
        """Run the full three-phase test; raises on protocol failure."""
        vm.require_running()
        rng = self.stream_for(vm.name)
        if rng.random() < FAILURE_RATE:
            raise SpeedTestError(
                f"test from {vm.name} to {server.server_id} failed")
        if self.injector is not None:
            if self.injector.speedtest_fails(vm.name, server.server_id, ts):
                raise SpeedTestError(
                    f"injected failure: test from {vm.name} to "
                    f"{server.server_id} at {ts:.0f}")
            fraction = self.injector.truncation_fraction(
                vm.name, server.server_id, ts)
            if fraction is not None:
                raise TruncatedTransferError(
                    f"transfer from {vm.name} to {server.server_id} "
                    f"truncated after {fraction:.0%} of the test")

        # Evaluate each direction's path state once; the latency phase
        # rides the egress (probe) direction.
        ingress_metrics = self.path_snapshot(vm, server, ts,
                                             Direction.INGRESS)
        egress_metrics = self.path_snapshot(vm, server, ts,
                                            Direction.EGRESS)
        latency_ms = self._latency_phase(egress_metrics, rng)
        server_cap = server.effective_cap_mbps
        down_mbps, down_loss = self._bulk_phase(
            vm, ingress_metrics, Direction.INGRESS, server_cap, rng)
        up_mbps, up_loss = self._bulk_phase(
            vm, egress_metrics, Direction.EGRESS, server_cap, rng)

        down_bytes = transferred_bytes(down_mbps, DOWNLOAD_DURATION_S)
        up_bytes = transferred_bytes(up_mbps, UPLOAD_DURATION_S)
        cpu = vm.machine_type.cpu_utilization_during_test(
            max(down_mbps, up_mbps))

        return SpeedTestResult(
            server_id=server.server_id,
            vm_name=vm.name,
            ts=ts,
            latency_ms=round(latency_ms, 2),
            download_mbps=round(down_mbps, 2),
            upload_mbps=round(up_mbps, 2),
            download_loss_rate=down_loss,
            upload_loss_rate=up_loss,
            download_bytes=down_bytes,
            upload_bytes=up_bytes,
            duration_s=TEST_DURATION_S,
            cpu_utilization=cpu,
        )

    # ------------------------------------------------------------------
    # phases

    def _routes(self, vm: VirtualMachine, server: SpeedTestServer,
                data_direction: Direction) -> Tuple[Route, Route]:
        return self.platform.route_pair(vm, server.host_pop_id,
                                        data_direction)

    def _latency_phase(self, metrics: PathMetrics,
                       rng: np.random.Generator) -> float:
        """Minimum RTT over a burst of small probes."""
        jitter = rng.exponential(PING_JITTER_MS, size=PING_COUNT)
        samples = metrics.rtt_ms + jitter
        return float(np.min(samples))

    def _bulk_phase(self, vm: VirtualMachine, metrics: PathMetrics,
                    direction: Direction, server_cap_mbps: float,
                    rng: np.random.Generator) -> Tuple[float, float]:
        """One bulk-transfer phase; returns (reported Mbps, loss rate)."""
        tcp_mbps = multiflow_throughput_mbps(
            rtt_ms=metrics.rtt_ms,
            loss_rate=metrics.tcp_effective_loss_rate,
            n_flows=flows_for_rtt(metrics.rtt_ms),
            path_avail_mbps=metrics.avail_mbps,
        )
        rate = min(tcp_mbps, self._endpoint_cap(vm, direction),
                   server_cap_mbps)
        rate = min(rate, vm.machine_type.cpu_throughput_cap_mbps)
        # Multiplicative measurement noise: a one-sided shortfall factor
        # (tests rarely over-report) plus a tiny symmetric wiggle.
        shortfall = abs(rng.normal(0.0, NOISE_SIGMA))
        wiggle = rng.normal(0.0, NOISE_SIGMA * 0.25)
        factor = max(0.05, min(1.0, 1.0 - shortfall + wiggle))
        reported = max(0.05, rate * factor)
        return reported, metrics.measured_loss_rate

    @staticmethod
    def _endpoint_cap(vm: VirtualMachine, direction: Direction) -> float:
        """The tc shaping cap that applies to this data direction."""
        if direction is Direction.INGRESS:
            return vm.nic.ingress_cap_mbps()
        return vm.nic.egress_cap_mbps()

    # ------------------------------------------------------------------

    def path_snapshot(self, vm: VirtualMachine, server: SpeedTestServer,
                      ts: float,
                      direction: Direction = Direction.INGRESS) -> PathMetrics:
        """Expose the raw path state (used by analysis & tests)."""
        data_route, ack_route = self._routes(vm, server, direction)
        return self.platform.path_model.evaluate(data_route, ts, ack_route)
