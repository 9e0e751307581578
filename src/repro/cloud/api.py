"""The cloud platform facade: orchestration API plus tier routing.

:class:`CloudPlatform` owns the simulated cloud side of the world: it
binds a generated Internet to one provider's region catalog, creates
and terminates VMs (attaching them as hosts in the topology), provides
buckets, bills usage at the provider's rates, and - crucially for the
experiments - computes tier-correct routes between a VM and any
destination.  The tier -> (graph, potato policy) mapping is the
provider's :attr:`~repro.cloud.providers.base.CloudProvider.tier_table`
(see :mod:`repro.cloud.providers.gcp` for the paper's table).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..errors import CloudError, QuotaExceededError
from ..netsim.generator import GeneratedInternet
from ..netsim.linkstate import LinkStateEvaluator
from ..netsim.pathmodel import PathPerformanceModel
from ..netsim.routing import Route, Router
from ..netsim.topology import PoP
from ..units import gbps
from .billing import CostTracker
from .nic import NetworkInterface
from .providers import CloudProvider, get_provider
from .storage import StorageService
from .tiers import Direction
from .vm import VirtualMachine, VMStatus

__all__ = ["Direction", "CloudPlatform"]

#: Running VMs allowed per region (matches a modest real project).
VM_QUOTA_PER_REGION = 24


class CloudPlatform:
    """One simulated cloud provider bound to one generated Internet."""

    def __init__(self, internet: GeneratedInternet,
                 cost_tracker: Optional[CostTracker] = None,
                 provider: Optional[Union[str, CloudProvider]] = None,
                 cloud_asn: Optional[int] = None) -> None:
        """Bind *provider* (default: GCP) to *internet*.

        *cloud_asn* is the ASN of this provider's WAN inside the
        generated topology; it defaults to the Internet's primary cloud
        ASN, which is correct for GCP.  Non-GCP providers pass the ASN
        their WAN was grown under (see
        :meth:`~repro.netsim.generator.TopologyGenerator.add_cloud_wan`).
        """
        self.provider = get_provider(provider)
        self.internet = internet
        self.topology = internet.topology
        self.cloud_asn = (internet.cloud_asn if cloud_asn is None
                          else cloud_asn)
        self.router = Router(self.topology, cloud_asn=self.cloud_asn)
        self.evaluator = LinkStateEvaluator(internet.utilization)
        self.path_model = PathPerformanceModel(self.topology, self.evaluator)
        self.costs = cost_tracker or CostTracker(
            prices=self.provider.price_book)
        self.storage = StorageService(self.costs)
        self._vms: Dict[str, VirtualMachine] = {}
        self._vm_counter = itertools.count(1)
        self._route_cache: Dict[Tuple[int, int, Direction, enum.Enum, int],
                                Route] = {}

    # ------------------------------------------------------------------
    # placement helpers

    def region_pop(self, region_name: str) -> PoP:
        """The cloud WAN PoP hosting a region's datacenter."""
        region = self.provider.region(region_name)
        pop = self.topology.pop_of_as_in_city(self.cloud_asn, region.city_key)
        if pop is None:
            raise CloudError(
                f"region {region_name} city {region.city_key!r} has no "
                f"cloud PoP in this topology")
        return pop

    def available_regions(self) -> List[str]:
        """Regions whose metro exists in the generated topology."""
        out = []
        for name, region in self.provider.regions.items():
            if self.topology.pop_of_as_in_city(self.cloud_asn,
                                               region.city_key) is not None:
                out.append(name)
        return sorted(out)

    # ------------------------------------------------------------------
    # VM lifecycle

    def create_vm(self, region_name: str, machine_type: str,
                  tier: enum.Enum, ts: float,
                  name: Optional[str] = None,
                  inherit_attachment_from: Optional[VirtualMachine] = None
                  ) -> VirtualMachine:
        """Provision a VM and attach it to the region's PoP.

        *inherit_attachment_from* re-provisions onto a stopped VM's
        physical slot: the new VM reuses that VM's zone, host node, IP,
        and LAN attach link instead of allocating fresh ones.  This is
        how replacements stay deterministic regardless of the order in
        which failures are recovered (topology ids never depend on the
        recovery schedule), and it keeps the route cache valid as-is.
        """
        with obs.span("cloud.create_vm"):
            vm = self._create_vm(region_name, machine_type, tier, ts,
                                 name, inherit_attachment_from)
        obs.inc("cloud.vms_created")
        return vm

    def _create_vm(self, region_name: str, machine_type: str,
                   tier: enum.Enum, ts: float,
                   name: Optional[str],
                   donor: Optional[VirtualMachine] = None) -> VirtualMachine:
        region = self.provider.region(region_name)
        running = [v for v in self._vms.values()
                   if v.region_name == region_name and v.is_running]
        if len(running) >= VM_QUOTA_PER_REGION:
            raise QuotaExceededError(
                f"region {region_name} is at its quota of "
                f"{VM_QUOTA_PER_REGION} running VMs")
        mtype = self.provider.machine_type(machine_type)
        if donor is not None:
            if donor.is_running:
                raise CloudError(
                    f"cannot inherit the attachment of running VM "
                    f"{donor.name!r}")
            if donor.region_name != region_name:
                raise CloudError(
                    f"attachment donor {donor.name!r} is in "
                    f"{donor.region_name}, not {region_name}")
            zone = donor.zone
            # Fresh NIC object (rate caps are per-VM state) on the same
            # physical attachment: host node, IP, and LAN link.
            nic = NetworkInterface(ip=donor.nic.ip,
                                   host_pop_id=donor.nic.host_pop_id,
                                   attach_link_id=donor.nic.attach_link_id)
        else:
            # Spread across zones round-robin, like the paper's
            # availability-zone load balancing.
            zone = region.zone(region.zone_suffixes[
                len(running) % len(region.zone_suffixes)])

            attach_pop = self.region_pop(region_name)
            alloc = self.internet.infra_allocators[self.cloud_asn]
            vm_ip = alloc.allocate_host()
            host = self.topology.add_host(self.cloud_asn, attach_pop.pop_id,
                                          vm_ip, capacity_mbps=gbps(10.0),
                                          delay_ms=0.05)
            # Cached intra-AS tables predate the new leaf node.
            self.router.invalidate_intra_cache(self.cloud_asn)
            attach_link = self.topology.links_of_pop(host.pop_id)[0]
            nic = NetworkInterface(ip=vm_ip, host_pop_id=host.pop_id,
                                   attach_link_id=attach_link.link_id)
        vm_name = name or f"clasp-{region_name}-{next(self._vm_counter):03d}"
        if vm_name in self._vms:
            raise CloudError(f"VM name {vm_name!r} already in use")
        vm = VirtualMachine(name=vm_name, zone=zone, machine_type=mtype,
                            tier=tier, nic=nic, created_ts=ts)
        self._vms[vm_name] = vm
        return vm

    def terminate_vm(self, name: str, ts: float) -> None:
        vm = self.get_vm(name)
        if not vm.is_running:
            raise CloudError(f"VM {name} is not running")
        vm.status = VMStatus.TERMINATED
        vm.terminated_ts = ts

    def preempt_vm(self, name: str, ts: float) -> None:
        """The provider reclaims a running VM (spot/maintenance event).

        The VM stops billing and serving work; callers recover by
        provisioning a replacement via
        :meth:`~repro.core.orchestrator.Orchestrator.replace_vm`.
        """
        vm = self.get_vm(name)
        if not vm.is_running:
            raise CloudError(f"VM {name} is not running")
        vm.status = VMStatus.PREEMPTED
        vm.terminated_ts = ts

    def get_vm(self, name: str) -> VirtualMachine:
        try:
            return self._vms[name]
        except KeyError:
            raise CloudError(f"unknown VM {name!r}") from None

    def vms(self, region_name: Optional[str] = None,
            running_only: bool = True) -> List[VirtualMachine]:
        out = [v for v in self._vms.values()
               if (region_name is None or v.region_name == region_name)
               and (not running_only or v.is_running)]
        return sorted(out, key=lambda v: v.name)

    def charge_vm_uptime(self, hours: float) -> float:
        """Bill *hours* of uptime for every running VM; returns USD."""
        total = 0.0
        for vm in self._vms.values():
            if vm.is_running:
                total += self.costs.charge_vm_hours(
                    vm.machine_type.hourly_usd, hours)
        return total

    # ------------------------------------------------------------------
    # tier routing

    def route(self, vm: VirtualMachine, remote_pop_id: int,
              direction: Direction, flow_id: int = 0) -> Route:
        """Tier-correct route between a VM and a remote host PoP.

        For :data:`Direction.EGRESS` the route runs VM -> remote; for
        :data:`Direction.INGRESS` it runs remote -> VM.  Routes are
        cached per (endpoints, direction, tier, flow).
        """
        key = (vm.nic.host_pop_id, remote_pop_id, direction, vm.tier, flow_id)
        cached = self._route_cache.get(key)
        if cached is not None:
            obs.inc("cloud.route.cache_hits")
            return cached
        obs.inc("cloud.route.cache_misses")
        mode, first_pol, last_pol = self.provider.tier_route(direction,
                                                             vm.tier)
        if direction is Direction.EGRESS:
            src, dst = vm.nic.host_pop_id, remote_pop_id
        else:
            src, dst = remote_pop_id, vm.nic.host_pop_id
        route = self.router.route(src, dst, mode=mode,
                                  first_as_policy=first_pol,
                                  last_as_policy=last_pol,
                                  flow_id=flow_id)
        self._route_cache[key] = route
        return route

    def route_pair(self, vm: VirtualMachine, remote_pop_id: int,
                   data_direction: Direction,
                   flow_id: int = 0) -> Tuple[Route, Route]:
        """(data route, reverse/ACK route) for one transfer."""
        reverse_dir = (Direction.INGRESS if data_direction is Direction.EGRESS
                       else Direction.EGRESS)
        return (self.route(vm, remote_pop_id, data_direction, flow_id),
                self.route(vm, remote_pop_id, reverse_dir, flow_id))
