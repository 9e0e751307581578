"""Virtual machine model."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import CloudError, VMPreemptedError
from .machinetypes import MachineType
from .nic import NetworkInterface
from .regions import Zone
from .tiers import NetworkTier

__all__ = ["VMStatus", "VirtualMachine"]


class VMStatus(enum.Enum):
    PROVISIONING = "provisioning"
    RUNNING = "running"
    PREEMPTED = "preempted"
    TERMINATED = "terminated"


@dataclass
class VirtualMachine:
    """A VM instance: shape, placement, tier, and NIC.

    Instances are created through
    :meth:`repro.cloud.api.CloudPlatform.create_vm`; mutating state
    directly will desynchronise billing.
    """

    name: str
    zone: Zone
    machine_type: MachineType
    tier: NetworkTier
    nic: NetworkInterface
    created_ts: float
    status: VMStatus = VMStatus.RUNNING
    terminated_ts: Optional[float] = None

    @property
    def region_name(self) -> str:
        return self.zone.region_name

    @property
    def is_running(self) -> bool:
        return self.status is VMStatus.RUNNING

    def require_running(self) -> None:
        """Raise unless the VM can serve work."""
        if self.status is VMStatus.PREEMPTED:
            raise VMPreemptedError(f"VM {self.name} was preempted")
        if not self.is_running:
            raise CloudError(f"VM {self.name} is {self.status.value}")
