"""Simulated hyperscale cloud platforms.

Regions and zones, machine types, VM lifecycle with rate-capped
NICs, network service tiers, egress/VM/storage billing, storage
buckets, and an orchestration API - everything CLASP touches in the
real cloud, implemented against the synthetic Internet in
:mod:`repro.netsim`.  Provider-specific vocabulary (region catalogs,
tier enums and their routing tables, rate cards) lives in
:mod:`repro.cloud.providers`; GCP is the default and reproduces the
paper's platform bit-for-bit.
"""

from .regions import Region, Zone, REGIONS
from .machinetypes import MachineType, MACHINE_TYPES
from .nic import NetworkInterface
from .tiers import Direction, NetworkTier
from .vm import VirtualMachine, VMStatus
from .billing import CostTracker, PriceBook
from .storage import StorageBucket, StorageObject, StorageService
from .providers import (AwsTier, CloudProvider, OpenStackTier, PROVIDERS,
                        WanConfig, get_provider, resolve_tier)
from .api import CloudPlatform
from .fleet import CloudFleet

__all__ = [
    "Region", "Zone", "REGIONS",
    "MachineType", "MACHINE_TYPES",
    "NetworkInterface",
    "Direction", "NetworkTier", "AwsTier", "OpenStackTier",
    "VirtualMachine", "VMStatus",
    "CostTracker", "PriceBook",
    "StorageBucket", "StorageObject", "StorageService",
    "CloudProvider", "PROVIDERS", "WanConfig", "get_provider",
    "resolve_tier",
    "CloudPlatform", "CloudFleet",
]
