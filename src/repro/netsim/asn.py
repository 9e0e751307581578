"""Autonomous systems and their business relationships.

The synthetic Internet follows the classic Gao–Rexford model: every
interdomain adjacency is either *customer-to-provider* (money flows up)
or *peer-to-peer* (settlement free).  Valley-free routing over these
relationships is implemented in :mod:`repro.netsim.routing`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from .addressing import Prefix
from ..errors import ValidationError

__all__ = ["ASType", "RelationshipKind", "ASRelationship", "AS"]


class ASType(enum.Enum):
    """Business category of an AS.

    The categories mirror what the paper's appendix resolves via
    ipinfo.io (ISP / Hosting / Business / Education) plus the structural
    roles the topology generator needs (tier-1 and regional transit,
    cloud, IXP route servers are modelled as peers at shared metros).
    """

    TIER1 = "tier1"              # global transit free of providers
    TRANSIT = "transit"          # regional/national transit provider
    ACCESS_ISP = "isp"           # eyeball/access ISP
    HOSTING = "hosting"          # datacenter / web hosting
    BUSINESS = "business"        # enterprise network
    EDUCATION = "education"      # university / NREN
    CLOUD = "cloud"              # the hyperscale cloud provider
    CDN = "cdn"                  # content network (background traffic)

    @property
    def ipinfo_label(self) -> str:
        """The label an ipinfo-style database would return."""
        mapping = {
            ASType.TIER1: "isp",
            ASType.TRANSIT: "isp",
            ASType.ACCESS_ISP: "isp",
            ASType.HOSTING: "hosting",
            ASType.BUSINESS: "business",
            ASType.EDUCATION: "education",
            ASType.CLOUD: "hosting",
            ASType.CDN: "hosting",
        }
        return mapping[self]


class RelationshipKind(enum.Enum):
    """Directed business relationship between two adjacent ASes."""

    CUSTOMER_TO_PROVIDER = "c2p"
    PEER_TO_PEER = "p2p"

    def reversed(self) -> "RelationshipKind":
        """The relationship as seen from the other endpoint."""
        if self is RelationshipKind.PEER_TO_PEER:
            return self
        return RelationshipKind.CUSTOMER_TO_PROVIDER  # direction encoded by order


@dataclass(frozen=True)
class ASRelationship:
    """A business adjacency: *a* relates to *b* with the given kind.

    For ``CUSTOMER_TO_PROVIDER``, *a* is the customer and *b* the
    provider.  ``PEER_TO_PEER`` is symmetric.
    """

    a: int
    b: int
    kind: RelationshipKind

    def other(self, asn: int) -> int:
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise ValidationError(f"AS{asn} is not part of this relationship")


@dataclass
class AS:
    """An autonomous system in the synthetic topology."""

    asn: int
    name: str
    as_type: ASType
    country: str = "US"
    prefixes: List[Prefix] = field(default_factory=list)
    #: City keys (``"Name, CC"``) where this AS has PoPs.
    pop_cities: List[str] = field(default_factory=list)
    #: Free-form organisation name (what a whois/ipinfo lookup shows).
    org: Optional[str] = None

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValidationError(f"ASN must be positive, got {self.asn}")
        if self.org is None:
            self.org = self.name

    def __repr__(self) -> str:
        return f"AS{self.asn}({self.name}, {self.as_type.value})"
