"""ipinfo.io-style IP metadata: organisation and business type.

The paper's appendix resolves test server IPs through ipinfo.io's
company data to label them ISP / Hosting / Business / Education, with
an "Unknown" bucket where the database has no category.  Our database
derives labels from the owning AS's registered type but drops a
realistic fraction of answers, so analyses must cope with Unknown.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from ..netsim.asn import ASType
from ..netsim.topology import Topology
from ..rng import SeedTree, stable_hash64
from .prefix2as import Prefix2AS

__all__ = ["BusinessType", "IpInfoRecord", "IpInfoDatabase"]

#: Share of ASes the company database has no category for.
UNKNOWN_RATE = 0.07


class BusinessType(enum.Enum):
    """The business categories the paper's Fig. 8 uses."""

    ISP = "isp"
    HOSTING = "hosting"
    BUSINESS = "business"
    EDUCATION = "education"
    UNKNOWN = "unknown"


_AS_TYPE_TO_BUSINESS = {
    ASType.TIER1: BusinessType.ISP,
    ASType.TRANSIT: BusinessType.ISP,
    ASType.ACCESS_ISP: BusinessType.ISP,
    ASType.HOSTING: BusinessType.HOSTING,
    ASType.BUSINESS: BusinessType.BUSINESS,
    ASType.EDUCATION: BusinessType.EDUCATION,
    ASType.CLOUD: BusinessType.HOSTING,
    ASType.CDN: BusinessType.HOSTING,
}


@dataclass(frozen=True)
class IpInfoRecord:
    """One lookup result."""

    ip: int
    asn: Optional[int]
    org: Optional[str]
    business_type: BusinessType


class IpInfoDatabase:
    """IP -> (ASN, org, business type) lookups with coverage gaps.

    :data:`UNKNOWN_RATE` is the probability the company database has no
    category for a given AS (deterministic per AS, so all IPs of one
    organisation agree).
    """

    def __init__(self, topology: Topology, prefix2as: Prefix2AS,
                 seeds: Optional[SeedTree] = None) -> None:
        self._topo = topology
        self._p2a = prefix2as
        self._seed = (seeds or SeedTree(0)).seed("ipinfo")
        self._unknown_cache: Dict[int, bool] = {}

    def _is_unknown(self, asn: int) -> bool:
        cached = self._unknown_cache.get(asn)
        if cached is None:
            h = stable_hash64(f"ipinfo-unknown:{self._seed}:{asn}")
            cached = (h % 10_000) < int(UNKNOWN_RATE * 10_000)
            self._unknown_cache[asn] = cached
        return cached

    def lookup(self, ip: int) -> IpInfoRecord:
        """Resolve one address; never raises for unknown space."""
        asn = self._p2a.lookup(ip)
        if asn is None:
            return IpInfoRecord(ip=ip, asn=None, org=None,
                                business_type=BusinessType.UNKNOWN)
        as_obj = self._topo.ases.get(asn)
        if as_obj is None or self._is_unknown(asn):
            return IpInfoRecord(ip=ip, asn=asn,
                                org=as_obj.org if as_obj else None,
                                business_type=BusinessType.UNKNOWN)
        return IpInfoRecord(
            ip=ip, asn=asn, org=as_obj.org,
            business_type=_AS_TYPE_TO_BUSINESS[as_obj.as_type])

    def business_type(self, ip: int) -> BusinessType:
        return self.lookup(ip).business_type
