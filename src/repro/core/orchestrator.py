"""Measurement VM orchestration.

Given selected server lists, the orchestrator sizes the deployment
(each VM performs at most 17 tests per hour: up to 120 s per test,
plus a 20-minute traceroute budget and 5 minutes for result upload),
creates VMs spread across availability zones, applies the 1 Gbps /
100 Mbps ``tc`` shaping, provisions the regional storage bucket, and
assigns each VM its server list.  Differential regions get a *pair* of
VMs per server list - one per tier of the provider's differential
pair (premium + standard on GCP).

Provider-specific defaults (machine type, measurement tier, the
differential tier pair, bucket naming) come from the platform's
:class:`~repro.cloud.providers.base.CloudProvider`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..cloud.api import CloudPlatform
from ..cloud.storage import StorageBucket
from ..cloud.vm import VirtualMachine
from ..errors import SchedulingError, ValidationError

__all__ = ["DeploymentPlan", "Orchestrator", "TESTS_PER_VM_HOUR"]

#: 17 tests x 120 s = 34 min, + 20 min of traceroutes + 5 min upload
#: fits in one hour; the 18th test would not.
TESTS_PER_VM_HOUR = 17

#: CLASP's tc shaping (asymmetric: only egress is billed).
DOWNLINK_CAP_MBPS = 1000.0
UPLINK_CAP_MBPS = 100.0

#: The VM type the paper used (GCP's default; other providers name
#: their own default in their catalog).
DEFAULT_MACHINE_TYPE = "n1-standard-2"


@dataclass
class DeploymentPlan:
    """What got deployed in one region."""

    region: str
    bucket: StorageBucket
    #: (vm, the server ids it measures hourly)
    assignments: List[Tuple[VirtualMachine, List[str]]] = \
        field(default_factory=list)
    #: Which provider the VMs belong to.
    provider: str = "gcp"

    @property
    def vms(self) -> List[VirtualMachine]:
        return [vm for vm, _ids in self.assignments]

    @property
    def server_ids(self) -> List[str]:
        out: List[str] = []
        for _vm, ids in self.assignments:
            out.extend(ids)
        return out

class Orchestrator:
    """Creates and wires up the measurement deployment."""

    def __init__(self, platform: CloudPlatform) -> None:
        self.platform = platform
        self.machine_type = platform.provider.default_machine_type
        self._deployment_counter = itertools.count(1)

    # ------------------------------------------------------------------

    @staticmethod
    def vms_needed(n_servers: int) -> int:
        """Measurement VMs needed for hourly coverage of *n_servers*."""
        if n_servers < 1:
            raise SchedulingError(
                f"cannot plan a deployment for {n_servers} servers")
        return math.ceil(n_servers / TESTS_PER_VM_HOUR)

    def _new_vm(self, region: str, tier: enum.Enum, ts: float,
                suffix: str) -> VirtualMachine:
        vm = self.platform.create_vm(
            region, self.machine_type, tier, ts,
            name=f"clasp-{region}-{tier.value}-{suffix}")
        vm.nic.apply_tc(ingress_mbps=DOWNLINK_CAP_MBPS,
                        egress_mbps=UPLINK_CAP_MBPS)
        return vm

    def _bucket(self, region: str) -> StorageBucket:
        name = self.platform.provider.bucket_name(region)
        try:
            return self.platform.storage.bucket(name)
        except Exception:
            return self.platform.storage.create_bucket(name, region)

    # ------------------------------------------------------------------

    def deploy_topology(self, region: str, server_ids: Sequence[str],
                        ts: float,
                        budget_servers: Optional[int] = None
                        ) -> DeploymentPlan:
        """Deploy premium-tier VMs for a topology-based server list.

        *budget_servers* truncates the list (the paper measured only a
        subset in us-west2/us-east4/us-central1 for cost reasons); it
        must be at least 1.
        """
        ids = list(server_ids)
        if budget_servers is not None:
            if budget_servers < 1:
                raise ValidationError(
                    f"budget_servers must be >= 1, got {budget_servers}")
            ids = ids[:budget_servers]
        if not ids:
            raise SchedulingError(f"empty server list for {region}")
        provider = self.platform.provider
        plan = DeploymentPlan(region=region, bucket=self._bucket(region),
                              provider=provider.name)
        deployment = next(self._deployment_counter)
        n_vms = self.vms_needed(len(ids))
        for i in range(n_vms):
            chunk = ids[i * TESTS_PER_VM_HOUR:(i + 1) * TESTS_PER_VM_HOUR]
            vm = self._new_vm(region, provider.measurement_tier, ts,
                              f"d{deployment:02d}-{i + 1:02d}")
            plan.assignments.append((vm, chunk))
        return plan

    def deploy_differential(self, region: str, server_ids: Sequence[str],
                            ts: float) -> DeploymentPlan:
        """Deploy one VM per differential tier measuring the same list.

        On GCP that is the premium + standard pair.  Providers without
        two comparable tiers (single-tier private clouds) cannot host
        a differential deployment and raise :class:`SchedulingError`.
        """
        ids = list(server_ids)
        if not ids:
            raise SchedulingError(f"empty server list for {region}")
        if len(ids) > TESTS_PER_VM_HOUR:
            raise SchedulingError(
                f"differential list for {region} exceeds one VM-hour "
                f"({len(ids)} > {TESTS_PER_VM_HOUR})")
        provider = self.platform.provider
        if provider.differential_tiers is None:
            raise SchedulingError(
                f"provider {provider.name!r} has a single network tier; "
                f"differential deployments need two")
        plan = DeploymentPlan(region=region, bucket=self._bucket(region),
                              provider=provider.name)
        deployment = next(self._deployment_counter)
        for tier in provider.differential_tiers:
            vm = self._new_vm(region, tier, ts, f"d{deployment:02d}-pair")
            plan.assignments.append((vm, list(ids)))
        return plan

    def replace_vm(self, plan: DeploymentPlan, old_vm: VirtualMachine,
                   ts: float, name: Optional[str] = None) -> VirtualMachine:
        """Re-provision a preempted/terminated VM, preserving its servers.

        The replacement keeps the old VM's region, machine type, tier,
        and ``tc`` shaping, inherits the old VM's physical attachment
        (zone, host node, IP, and LAN link - so routing state stays
        deterministic however recoveries interleave), and inherits the
        *exact* server list the old VM measured, so longitudinal
        per-server coverage survives a preemption.  Returns the new VM.
        """
        if old_vm.is_running:
            raise SchedulingError(
                f"VM {old_vm.name!r} is still running; preempt or "
                f"terminate it before replacing")
        vm = self.platform.create_vm(
            old_vm.region_name, old_vm.machine_type.name, old_vm.tier, ts,
            name=name or f"{old_vm.name}-r",
            inherit_attachment_from=old_vm)
        vm.nic.apply_tc(ingress_mbps=DOWNLINK_CAP_MBPS,
                        egress_mbps=UPLINK_CAP_MBPS)
        for index, (candidate, ids) in enumerate(plan.assignments):
            if candidate.name == old_vm.name:
                plan.assignments[index] = (vm, ids)
                return vm
        raise SchedulingError(
            f"VM {old_vm.name!r} not in plan for {plan.region}")
