"""Machine type catalog.

The paper used ``n1-standard-2`` / ``n2-standard-2`` (2 vCPUs, 7-8 GB
of memory, up to 10 Gbps egress) and verified the type had enough CPU
headroom to drive a speed test without throttling the network.  The
catalog models vCPUs, memory, the platform egress cap, and a rough
"speed test CPU cost" so under-provisioned types visibly degrade
measured throughput (as a real headless browser on a shared core
would).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ValidationError
from ..units import gbps

__all__ = ["MachineType", "MACHINE_TYPES"]


@dataclass(frozen=True)
class MachineType:
    """A VM shape offered by the platform."""

    name: str
    vcpus: int
    memory_gb: float
    egress_cap_mbps: float
    hourly_usd: float

    #: Throughput (Mbps) one vCPU can push through a browser-based
    #: speed test before the CPU becomes the bottleneck.
    CPU_MBPS_PER_VCPU = 1800.0

    @property
    def cpu_throughput_cap_mbps(self) -> float:
        """Max speed-test throughput before CPU starves the test."""
        return self.vcpus * self.CPU_MBPS_PER_VCPU

    def cpu_utilization_during_test(self, rate_mbps: float) -> float:
        """Fraction of total CPU a test at *rate_mbps* consumes."""
        if rate_mbps < 0:
            raise ValidationError(f"rate must be >= 0, got {rate_mbps}")
        return min(1.0, rate_mbps / self.cpu_throughput_cap_mbps)


MACHINE_TYPES: Dict[str, MachineType] = {
    m.name: m for m in [
        MachineType("e2-small", 2, 2.0, gbps(1.0), 0.0168),
        MachineType("e2-medium", 2, 4.0, gbps(2.0), 0.0335),
        MachineType("n1-standard-1", 1, 3.75, gbps(2.0), 0.0475),
        MachineType("n1-standard-2", 2, 7.5, gbps(10.0), 0.0950),
        MachineType("n2-standard-2", 2, 8.0, gbps(10.0), 0.0971),
        MachineType("n1-standard-4", 4, 15.0, gbps(10.0), 0.1900),
        MachineType("n2-standard-4", 4, 16.0, gbps(10.0), 0.1942),
    ]
}

