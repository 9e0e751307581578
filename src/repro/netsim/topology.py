"""City-level network topology: PoPs, links, interfaces, interdomain links.

The granularity is one router per (AS, city) *point of presence*.  Every
link endpoint gets its own interface IP, so traceroute and bdrmap see a
realistic address plan: interdomain link subnets are allocated by one of
the two adjacent ASes (usually, but not always, the non-cloud side),
which is exactly the ambiguity bdrmap-style inference has to resolve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, ItemsView, List, Optional, Set, Tuple

from ..errors import TopologyError
from ..geo import City
from .addressing import Prefix, PrefixTrie, format_ip
from .asn import AS, ASRelationship, RelationshipKind

__all__ = ["LinkKind", "PoP", "Interface", "Link", "InterdomainLink", "Topology"]


class LinkKind(enum.Enum):
    """What role a link plays in the topology."""

    BACKBONE = "backbone"        # intra-AS long-haul between two PoPs
    INTERDOMAIN = "interdomain"  # border link between two ASes
    ACCESS = "access"            # last-mile aggregation inside an access ISP
    LAN = "lan"                  # server/VM attachment inside a PoP


@dataclass(frozen=True)
class PoP:
    """A node in the forwarding graph.

    Router PoPs (``is_host=False``) are one-per-(AS, city); host PoPs
    model end hosts (speed test servers, cloud VMs) attached to a router
    PoP by a LAN/access link and are exempt from the uniqueness rule.
    """

    pop_id: int
    asn: int
    city_key: str
    loopback_ip: int
    is_host: bool = False

    def __repr__(self) -> str:
        role = "Host" if self.is_host else "PoP"
        return f"{role}({self.pop_id}, AS{self.asn}, {self.city_key})"


@dataclass(frozen=True)
class Interface:
    """A numbered link endpoint owned by a PoP router."""

    ip: int
    pop_id: int
    link_id: int
    #: ASN whose address space the interface IP was allocated from
    #: (NOT necessarily the AS operating the router - that is the crux
    #: of border inference).
    address_asn: int

    def __repr__(self) -> str:
        return f"Interface({format_ip(self.ip)}, pop={self.pop_id})"


@dataclass
class Link:
    """A bidirectional link between two PoPs.

    Capacity is symmetric; utilization may differ per direction (the
    traffic model tracks the two directions separately, keyed by
    ``(link_id, direction)`` where direction 0 is a->b).
    """

    link_id: int
    kind: LinkKind
    pop_a: int
    pop_b: int
    capacity_mbps: float
    delay_ms: float
    iface_a: Optional[Interface] = None
    iface_b: Optional[Interface] = None
    #: Extra *bursty* loss on this link (micro-burst drops): inflates
    #: measured packet loss heavily but, being correlated, degrades
    #: multi-flow TCP throughput far less than independent loss would.
    burst_loss: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_mbps <= 0:
            raise TopologyError(
                f"link {self.link_id} capacity must be positive")
        if self.delay_ms < 0:
            raise TopologyError(f"link {self.link_id} delay must be >= 0")
        if self.pop_a == self.pop_b:
            raise TopologyError(f"link {self.link_id} is a self-loop")

    def other_pop(self, pop_id: int) -> int:
        if pop_id == self.pop_a:
            return self.pop_b
        if pop_id == self.pop_b:
            return self.pop_a
        raise TopologyError(f"PoP {pop_id} not on link {self.link_id}")

    def interface_at(self, pop_id: int) -> Optional[Interface]:
        """Interface on the *pop_id* side of this link."""
        if pop_id == self.pop_a:
            return self.iface_a
        if pop_id == self.pop_b:
            return self.iface_b
        raise TopologyError(f"PoP {pop_id} not on link {self.link_id}")

    def direction_from(self, pop_id: int) -> int:
        """0 when traffic flows a->b starting at *pop_id*, else 1."""
        if pop_id == self.pop_a:
            return 0
        if pop_id == self.pop_b:
            return 1
        raise TopologyError(f"PoP {pop_id} not on link {self.link_id}")


@dataclass(frozen=True)
class InterdomainLink:
    """Ground-truth record of one border link (for generation & tests).

    ``far_ip`` is the interface on the *far* (non-cloud, or generally
    pop_b) side - the address bdrmap reports as the far side of the
    interconnection.
    """

    link_id: int
    near_asn: int
    far_asn: int
    city_key: str
    near_ip: int
    far_ip: int

    def __repr__(self) -> str:
        return (f"InterdomainLink(AS{self.near_asn}<->AS{self.far_asn} "
                f"@ {self.city_key}, far={format_ip(self.far_ip)})")


class Topology:
    """The full synthetic internetwork.

    Owns ASes, PoPs, links, the relationship graph, and the address
    indices that tools (traceroute, bdrmap, prefix-to-AS) query.
    """

    def __init__(self) -> None:
        self._ases: Dict[int, AS] = {}
        self._pops: Dict[int, PoP] = {}
        self._links: Dict[int, Link] = {}
        self._relationships: Dict[Tuple[int, int], RelationshipKind] = {}
        self._pops_of_as: Dict[int, List[int]] = {}
        self._pop_by_as_city: Dict[Tuple[int, str], int] = {}
        self._links_of_pop: Dict[int, List[int]] = {}
        self._interdomain: List[InterdomainLink] = []
        self._interdomain_by_pair: Dict[Tuple[int, int], List[InterdomainLink]] = {}
        self._iface_by_ip: Dict[int, Interface] = {}
        self._next_pop_id = 1
        self._next_link_id = 1
        self.cities: Dict[str, City] = {}
        self._prefix_pops: PrefixTrie[int] = PrefixTrie()

    # ------------------------------------------------------------------
    # construction

    def add_city(self, city: City) -> None:
        """Register a city so PoPs can reference it by key."""
        self.cities[city.key] = city

    def add_as(self, as_obj: AS) -> AS:
        if as_obj.asn in self._ases:
            raise TopologyError(f"duplicate ASN {as_obj.asn}")
        self._ases[as_obj.asn] = as_obj
        self._pops_of_as[as_obj.asn] = []
        return as_obj

    def add_pop(self, asn: int, city_key: str, loopback_ip: int) -> PoP:
        if asn not in self._ases:
            raise TopologyError(f"unknown ASN {asn}")
        if city_key not in self.cities:
            raise TopologyError(f"unknown city {city_key!r}")
        key = (asn, city_key)
        if key in self._pop_by_as_city:
            raise TopologyError(f"AS{asn} already has a PoP in {city_key}")
        pop = PoP(self._next_pop_id, asn, city_key, loopback_ip)
        self._next_pop_id += 1
        self._pops[pop.pop_id] = pop
        self._pops_of_as[asn].append(pop.pop_id)
        self._pop_by_as_city[key] = pop.pop_id
        self._links_of_pop[pop.pop_id] = []
        self._ases[asn].pop_cities.append(city_key)
        return pop

    def add_host(self, asn: int, attach_pop_id: int, host_ip: int,
                 capacity_mbps: float, delay_ms: float = 0.1,
                 kind: LinkKind = LinkKind.LAN) -> PoP:
        """Attach an end host (server/VM) to a router PoP.

        Returns the host's PoP node; the access link is created with the
        host's IP on the host side so traceroutes terminate at the
        host address.
        """
        attach = self.pop(attach_pop_id)
        if attach.is_host:
            raise TopologyError("cannot attach a host to another host")
        if asn not in self._ases:
            raise TopologyError(f"unknown ASN {asn}")
        host = PoP(self._next_pop_id, asn, attach.city_key, host_ip,
                   is_host=True)
        self._next_pop_id += 1
        self._pops[host.pop_id] = host
        self._pops_of_as[asn].append(host.pop_id)
        self._links_of_pop[host.pop_id] = []
        self.add_link(kind, attach_pop_id, host.pop_id,
                      capacity_mbps, delay_ms,
                      ip_b=host_ip, address_asn=asn)
        return host

    def add_link(self, kind: LinkKind, pop_a: int, pop_b: int,
                 capacity_mbps: float, delay_ms: float,
                 ip_a: Optional[int] = None, ip_b: Optional[int] = None,
                 address_asn: Optional[int] = None) -> Link:
        """Create a link; optionally number both endpoint interfaces.

        *address_asn* records which AS's space the link subnet came
        from; it defaults to the AS of ``pop_a``.
        """
        for pid in (pop_a, pop_b):
            if pid not in self._pops:
                raise TopologyError(f"unknown PoP {pid}")
        link = Link(self._next_link_id, kind, pop_a, pop_b,
                    capacity_mbps, delay_ms)
        self._next_link_id += 1
        owner = address_asn if address_asn is not None else self._pops[pop_a].asn
        if ip_a is not None:
            link.iface_a = self._register_interface(ip_a, pop_a, link.link_id, owner)
        if ip_b is not None:
            link.iface_b = self._register_interface(ip_b, pop_b, link.link_id, owner)
        self._links[link.link_id] = link
        self._links_of_pop[pop_a].append(link.link_id)
        self._links_of_pop[pop_b].append(link.link_id)
        return link

    def _register_interface(self, ip: int, pop_id: int, link_id: int,
                            address_asn: int) -> Interface:
        if ip in self._iface_by_ip:
            raise TopologyError(f"duplicate interface IP {format_ip(ip)}")
        iface = Interface(ip, pop_id, link_id, address_asn)
        self._iface_by_ip[ip] = iface
        return iface

    def register_interdomain(self, record: InterdomainLink) -> None:
        """Record ground truth for a border link (generator only)."""
        self._interdomain.append(record)
        pair = (record.near_asn, record.far_asn)
        self._interdomain_by_pair.setdefault(pair, []).append(record)

    def add_relationship(self, rel: ASRelationship) -> None:
        for asn in (rel.a, rel.b):
            if asn not in self._ases:
                raise TopologyError(f"unknown ASN {asn} in relationship")
        if rel.kind is RelationshipKind.PEER_TO_PEER:
            key = (min(rel.a, rel.b), max(rel.a, rel.b))
            self._relationships[key] = RelationshipKind.PEER_TO_PEER
        else:
            # Stored with orientation: (customer, provider).
            self._relationships[(rel.a, rel.b)] = RelationshipKind.CUSTOMER_TO_PROVIDER

    # ------------------------------------------------------------------
    # lookups

    @property
    def ases(self) -> Dict[int, AS]:
        return self._ases

    @property
    def pops(self) -> Dict[int, PoP]:
        return self._pops

    @property
    def links(self) -> Dict[int, Link]:
        return self._links

    def as_of(self, asn: int) -> AS:
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown ASN {asn}") from None

    def pop(self, pop_id: int) -> PoP:
        try:
            return self._pops[pop_id]
        except KeyError:
            raise TopologyError(f"unknown PoP {pop_id}") from None

    def link(self, link_id: int) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id}") from None

    def pops_of_as(self, asn: int) -> List[PoP]:
        return [self._pops[pid] for pid in self._pops_of_as.get(asn, [])]

    def pop_of_as_in_city(self, asn: int, city_key: str) -> Optional[PoP]:
        pid = self._pop_by_as_city.get((asn, city_key))
        return None if pid is None else self._pops[pid]

    def links_of_pop(self, pop_id: int) -> List[Link]:
        return [self._links[lid] for lid in self._links_of_pop.get(pop_id, [])]

    def neighbors(self, asn: int) -> Set[int]:
        """ASes adjacent to *asn* via at least one interdomain link."""
        out: Set[int] = set()
        for (a, b), _kind in self._relationships.items():
            if a == asn:
                out.add(b)
            elif b == asn:
                out.add(a)
        return out

    def relationships(self) -> ItemsView[Tuple[int, int], RelationshipKind]:
        """Every relationship in insertion order.

        Keys are ``(customer, provider)`` for customer-to-provider and
        ``(low ASN, high ASN)`` for peer-to-peer relationships.
        """
        return self._relationships.items()

    def providers_of(self, asn: int) -> Set[int]:
        return {b for (a, b), k in self._relationships.items()
                if a == asn and k is RelationshipKind.CUSTOMER_TO_PROVIDER}

    def customers_of(self, asn: int) -> Set[int]:
        return {a for (a, b), k in self._relationships.items()
                if b == asn and k is RelationshipKind.CUSTOMER_TO_PROVIDER}

    def peers_of(self, asn: int) -> Set[int]:
        out = set()
        for (a, b), k in self._relationships.items():
            if k is RelationshipKind.PEER_TO_PEER and asn in (a, b):
                out.add(b if a == asn else a)
        return out

    def interdomain_links(self, near_asn: Optional[int] = None) -> List[InterdomainLink]:
        """Ground-truth border links, optionally filtered by near AS."""
        if near_asn is None:
            return list(self._interdomain)
        return [r for r in self._interdomain if r.near_asn == near_asn]

    def interdomain_between(self, a: int, b: int) -> List[InterdomainLink]:
        return list(self._interdomain_by_pair.get((a, b), [])) + \
            list(self._interdomain_by_pair.get((b, a), []))

    def register_announced_prefix(self, prefix: Prefix, pop_id: int) -> None:
        """Associate an announced prefix with the PoP that originates it.

        Probing tools use this to aim a traceroute at "an address in
        prefix P" - the probe is routed toward the announcing PoP.
        """
        if pop_id not in self._pops:
            raise TopologyError(f"unknown PoP {pop_id}")
        self._prefix_pops.insert(prefix, pop_id)

    def resolve_ip_to_pop(self, ip: int) -> Optional[PoP]:
        """The PoP a probe to *ip* lands on (interface, host, or prefix)."""
        iface = self._iface_by_ip.get(ip)
        if iface is not None:
            return self._pops[iface.pop_id]
        pop_id = self._prefix_pops.lookup(ip)
        return None if pop_id is None else self._pops[pop_id]

    def announced_prefixes(self) -> List[Tuple[Prefix, int]]:
        """All (announced prefix, origin PoP id) pairs."""
        return sorted(self._prefix_pops.items(),
                      key=lambda item: (item[0].network, item[0].length))

    def interface_by_ip(self, ip: int) -> Optional[Interface]:
        return self._iface_by_ip.get(ip)

    def aliases_of(self, ip: int) -> Set[int]:
        """All interface IPs on the same router as *ip* (incl. loopback)."""
        iface = self._iface_by_ip.get(ip)
        if iface is None:
            return set()
        pop = self._pops[iface.pop_id]
        out = {pop.loopback_ip}
        for link in self.links_of_pop(pop.pop_id):
            for side in (link.iface_a, link.iface_b):
                if side is not None and side.pop_id == pop.pop_id:
                    out.add(side.ip)
        return out

    def city_of_pop(self, pop_id: int) -> City:
        pop = self.pop(pop_id)
        return self.cities[pop.city_key]

    # ------------------------------------------------------------------
    # integrity

    def validate(self) -> None:
        """Raise :class:`TopologyError` on structural inconsistencies."""
        for link in self._links.values():
            if link.pop_a not in self._pops or link.pop_b not in self._pops:
                raise TopologyError(f"link {link.link_id} has dangling PoP")
            if link.kind is LinkKind.INTERDOMAIN:
                asn_a = self._pops[link.pop_a].asn
                asn_b = self._pops[link.pop_b].asn
                if asn_a == asn_b:
                    raise TopologyError(
                        f"interdomain link {link.link_id} joins AS{asn_a} to itself")
        for record in self._interdomain:
            if record.link_id not in self._links:
                raise TopologyError(
                    f"interdomain record references missing link {record.link_id}")

    def stats(self) -> Dict[str, int]:
        """Summary counts, handy for logging and calibration tests."""
        return {
            "ases": len(self._ases),
            "pops": len(self._pops),
            "links": len(self._links),
            "interdomain_links": len(self._interdomain),
            "relationships": len(self._relationships),
        }
