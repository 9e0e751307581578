"""Policy routing: valley-free AS paths and router-level expansion.

AS-level routing follows the Gao-Rexford export rules:

* an AS exports its own and customer routes to everyone,
* it exports peer/provider routes only to its customers,

which yields the classic preference order *customer > peer > provider*
with shortest-AS-path tie-breaking.  Routes are computed by a three-phase
BFS from the destination and cached per (destination, graph-mode).

Two graph modes model the cloud provider's network service tiers:

* ``full`` - the real adjacency, including the cloud's rich
  settlement-free peering edge (premium tier uses this),
* ``standard`` - the cloud keeps only its transit providers, so paths
  to/from the cloud traverse the public transit core (standard tier).

Router-level expansion turns an AS path into a concrete PoP/link path.
Potato policy decides *where* to cross each interdomain boundary:
hot-potato hands traffic off at the interconnection closest to where it
currently is (the public-Internet default), cold-potato carries it on
the current AS's backbone to the interconnection closest to the final
destination (what the premium tier's private WAN does).
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import NoRouteError, RoutingError, TopologyError
from ..rng import stable_hash64
from .asn import RelationshipKind
from .topology import InterdomainLink, Link, LinkKind, Topology

__all__ = ["GraphMode", "TierPolicy", "Route", "Router"]


class GraphMode(enum.Enum):
    """Which AS adjacency the path computation sees."""

    FULL = "full"
    STANDARD = "standard"


class TierPolicy(enum.Enum):
    """Potato policy applied inside the *first* AS of the path."""

    HOT_POTATO = "hot"
    COLD_POTATO = "cold"


# Route preference classes, lower is better.
_CLS_SELF = 0
_CLS_CUSTOMER = 1
_CLS_PEER = 2
_CLS_PROVIDER = 3

#: A border link candidate a->b: (record, link, near_pop, far_pop).
_Candidate = Tuple[InterdomainLink, Link, int, int]
#: An intra-AS leg: the PoPs after its first one, and its directed links.
_Leg = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class Route:
    """A fully expanded forwarding path.

    ``links`` holds ``(link_id, direction)`` pairs where direction 0
    means the flow traverses the link from ``pop_a`` to ``pop_b``.
    ``pops`` has exactly ``len(links) + 1`` entries.
    """

    as_path: Tuple[int, ...]
    pops: Tuple[int, ...]
    links: Tuple[Tuple[int, int], ...]
    mode: GraphMode = GraphMode.FULL
    #: Ground-truth interdomain records crossed, in order.
    border_crossings: Tuple[InterdomainLink, ...] = ()

    def __post_init__(self) -> None:
        if len(self.pops) != len(self.links) + 1:
            raise RoutingError("route pops/links length mismatch")

    @property
    def src_pop(self) -> int:
        return self.pops[0]

    @property
    def dst_pop(self) -> int:
        return self.pops[-1]

    def propagation_delay_ms(self, topology: Topology) -> float:
        """One-way propagation delay along the route."""
        return sum(topology.link(lid).delay_ms for lid, _d in self.links)


class Router:
    """Routing engine bound to one :class:`Topology`.

    The name mirrors its role ("the thing that computes routes"); it is
    exported from :mod:`repro.netsim` as ``RoutingEngine``.
    """

    def __init__(self, topology: Topology,
                 cloud_asn: Optional[int] = None) -> None:
        self._topo = topology
        self._cloud_asn = cloud_asn
        # dst -> mode -> {asn: (cls, dist, next_hop)}
        self._rib_cache: Dict[Tuple[int, GraphMode], Dict[int, Tuple[int, int, int]]] = {}
        # (asn, src_pop) -> {dst_pop: (prev_pop, link_id)}
        self._intra_cache: Dict[Tuple[int, int], Dict[int, Tuple[int, int]]] = {}
        # (asn, src_pop) -> {dst_pop: reconstructed leg}, see _intra_leg
        self._leg_cache: Dict[Tuple[int, int], Dict[int, _Leg]] = {}
        # (from_asn, to_asn) -> border candidates, near PoP in from_asn
        self._border_cache: Dict[Tuple[int, int], Tuple[_Candidate, ...]] = {}
        # (from_asn, to_asn, anchor_pop) -> border candidates tied nearest
        self._ties_cache: Dict[Tuple[int, int, int], Tuple[_Candidate, ...]] = {}
        self._border_memo_hits = 0
        self._border_memo_misses = 0
        self._adj_full = self._build_adjacency(GraphMode.FULL)
        self._adj_std = self._build_adjacency(GraphMode.STANDARD)

    # ------------------------------------------------------------------
    # AS-level

    def _build_adjacency(self, mode: GraphMode) -> Dict[str, Dict[int, Set[int]]]:
        """Precompute providers/customers/peers maps for a graph mode."""
        topo = self._topo
        providers: Dict[int, Set[int]] = {asn: set() for asn in topo.ases}
        customers: Dict[int, Set[int]] = {asn: set() for asn in topo.ases}
        peers: Dict[int, Set[int]] = {asn: set() for asn in topo.ases}
        for (a, b), kind in topo.relationships():
            if kind is RelationshipKind.PEER_TO_PEER:
                peers[a].add(b)
                peers[b].add(a)
            else:
                providers[a].add(b)
                customers[b].add(a)
        # Each set was filled in relationship order, as
        # Topology.providers_of/customers_of/peers_of fill theirs; one
        # copy then lays it out slot for slot like a copy of the
        # per-AS query, so set iteration order (the RIB tie-breaks)
        # does not depend on how the sets were built.
        providers = {asn: set(s) for asn, s in providers.items()}
        customers = {asn: set(s) for asn, s in customers.items()}
        peers = {asn: set(s) for asn, s in peers.items()}
        if mode is GraphMode.STANDARD and self._cloud_asn is not None:
            cloud = self._cloud_asn
            # Drop the cloud's settlement-free peering edge entirely: in
            # the standard tier its prefixes are reachable (and its
            # egress flows) only via its transit providers.
            for peer in peers[cloud]:
                peers[peer].discard(cloud)
            peers[cloud] = set()
            for cust in customers[cloud]:
                providers[cust].discard(cloud)
            customers[cloud] = set()
        return {"providers": providers, "customers": customers, "peers": peers}

    def _adjacency(self, mode: GraphMode) -> Dict[str, Dict[int, Set[int]]]:
        return self._adj_full if mode is GraphMode.FULL else self._adj_std

    def _routes_to(self, dst_asn: int,
                   mode: GraphMode) -> Dict[int, Tuple[int, int, int]]:
        """Best route of every AS toward *dst_asn*: (class, length, next hop)."""
        key = (dst_asn, mode)
        cached = self._rib_cache.get(key)
        if cached is not None:
            return cached
        if dst_asn not in self._topo.ases:
            raise TopologyError(f"unknown destination ASN {dst_asn}")
        adj = self._adjacency(mode)
        providers = adj["providers"]
        customers = adj["customers"]
        peers = adj["peers"]

        best: Dict[int, Tuple[int, int, int]] = {dst_asn: (_CLS_SELF, 0, dst_asn)}

        # Phase 1: customer routes climb customer->provider edges from dst.
        frontier = deque([dst_asn])
        while frontier:
            asn = frontier.popleft()
            cls, dist, _nh = best[asn]
            for prov in providers[asn]:
                cand = (_CLS_CUSTOMER, dist + 1, asn)
                cur = best.get(prov)
                if cur is None or _better(cand, cur):
                    best[prov] = cand
                    frontier.append(prov)

        # Phase 2: one peer edge on top of a customer route (or dst itself).
        customer_holders = [(asn, rec) for asn, rec in best.items()
                            if rec[0] in (_CLS_SELF, _CLS_CUSTOMER)]
        for asn, (cls, dist, _nh) in customer_holders:
            for peer in peers[asn]:
                cand = (_CLS_PEER, dist + 1, asn)
                cur = best.get(peer)
                if cur is None or _better(cand, cur):
                    best[peer] = cand

        # Phase 3: provider routes descend provider->customer edges.
        # Dijkstra-like expansion ordered by (class, length) so shorter
        # provider routes win deterministically.
        heap: List[Tuple[int, int, int, int]] = []
        for asn, (cls, dist, nh) in best.items():
            heapq.heappush(heap, (cls, dist, asn, nh))
        settled: Set[int] = set()
        while heap:
            cls, dist, asn, nh = heapq.heappop(heap)
            if asn in settled:
                continue
            cur = best.get(asn)
            if cur is not None and (cls, dist, nh) != cur:
                # A better record already replaced this heap entry.
                if _better(cur, (cls, dist, nh)):
                    continue
            settled.add(asn)
            for cust in customers[asn]:
                cand = (_CLS_PROVIDER, dist + 1, asn)
                cur_c = best.get(cust)
                if cur_c is None or _better(cand, cur_c):
                    best[cust] = cand
                    heapq.heappush(heap, (cand[0], cand[1], cust, asn))

        self._rib_cache[key] = best
        return best

    def as_path(self, src_asn: int, dst_asn: int,
                mode: GraphMode = GraphMode.FULL) -> Tuple[int, ...]:
        """Valley-free AS path from *src_asn* to *dst_asn*.

        Raises :class:`NoRouteError` when policy forbids all paths.
        """
        if src_asn == dst_asn:
            return (src_asn,)
        rib = self._routes_to(dst_asn, mode)
        if src_asn not in rib:
            raise NoRouteError(src_asn, dst_asn)
        path = [src_asn]
        cursor = src_asn
        seen = {src_asn}
        while cursor != dst_asn:
            _cls, _dist, nxt = rib[cursor]
            if nxt in seen:
                raise RoutingError(
                    f"routing loop toward AS{dst_asn} at AS{nxt}")
            path.append(nxt)
            seen.add(nxt)
            cursor = nxt
        return tuple(path)

    # ------------------------------------------------------------------
    # intra-AS shortest paths over backbone links

    def _intra_table(self, asn: int, src_pop: int) -> Dict[int, Tuple[int, int]]:
        """Dijkstra predecessor table inside one AS from *src_pop*."""
        key = (asn, src_pop)
        cached = self._intra_cache.get(key)
        if cached is not None:
            return cached
        topo = self._topo
        dist: Dict[int, float] = {src_pop: 0.0}
        prev: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[float, int]] = [(0.0, src_pop)]
        visited: Set[int] = set()
        while heap:
            d, pop_id = heapq.heappop(heap)
            if pop_id in visited:
                continue
            visited.add(pop_id)
            for link in topo.links_of_pop(pop_id):
                if link.kind is LinkKind.INTERDOMAIN:
                    continue
                other = link.other_pop(pop_id)
                if topo.pop(other).asn != asn:
                    continue
                # Host attachments are leaves: never transit through one.
                if topo.pop(pop_id).is_host and pop_id != src_pop:
                    continue
                nd = d + link.delay_ms
                if nd < dist.get(other, float("inf")):
                    dist[other] = nd
                    prev[other] = (pop_id, link.link_id)
                    heapq.heappush(heap, (nd, other))
        self._intra_cache[key] = prev
        return prev

    def _intra_leg(self, asn: int, src_pop: int, dst_pop: int) -> _Leg:
        """PoPs after *src_pop* and links from src to dst inside *asn*.

        Memoized per ``(asn, src_pop, dst_pop)`` next to the Dijkstra
        table it is read from, and dropped with it.
        """
        legs = self._leg_cache.setdefault((asn, src_pop), {})
        leg = legs.get(dst_pop)
        if leg is not None:
            return leg
        if src_pop == dst_pop:
            leg = legs[dst_pop] = ((), ())
            return leg
        prev = self._intra_table(asn, src_pop)
        if dst_pop not in prev:
            raise NoRouteError(src_pop, dst_pop)
        pops_rev = [dst_pop]
        links_rev: List[Tuple[int, int]] = []
        cursor = dst_pop
        while True:
            parent, link_id = prev[cursor]
            link = self._topo.link(link_id)
            links_rev.append((link_id, link.direction_from(parent)))
            if parent == src_pop:
                break
            pops_rev.append(parent)
            cursor = parent
        leg = legs[dst_pop] = (tuple(reversed(pops_rev)),
                               tuple(reversed(links_rev)))
        return leg

    # ------------------------------------------------------------------
    # interdomain link choice & full expansion

    def _border_candidates(self, from_asn: int,
                           to_asn: int) -> Tuple[_Candidate, ...]:
        """(record, link, near_pop, far_pop) for each border link a->b."""
        key = (from_asn, to_asn)
        cached = self._border_cache.get(key)
        if cached is not None:
            self._border_memo_hits += 1
            return cached
        self._border_memo_misses += 1
        out = []
        for record in self._topo.interdomain_between(from_asn, to_asn):
            link = self._topo.link(record.link_id)
            pop_a_asn = self._topo.pop(link.pop_a).asn
            if pop_a_asn == from_asn:
                near, far = link.pop_a, link.pop_b
            else:
                near, far = link.pop_b, link.pop_a
            if self._topo.pop(near).asn != from_asn or \
               self._topo.pop(far).asn != to_asn:
                continue
            out.append((record, link, near, far))
        candidates = tuple(out)
        self._border_cache[key] = candidates
        return candidates

    def _pop_distance_km(self, pop_a: int, pop_b: int) -> float:
        topo = self._topo
        city_a = topo.city_of_pop(pop_a)
        city_b = topo.city_of_pop(pop_b)
        return city_a.point.distance_km(city_b.point)

    def _border_ties(self, from_asn: int, to_asn: int,
                     anchor_pop: int) -> Tuple[_Candidate, ...]:
        """Border candidates a->b within 1 km of the nearest to *anchor_pop*.

        Sorted by (distance of the near PoP to the anchor, link id).
        The directed AS pair fixes which end of each link is the near
        PoP, so ``a->b`` and ``b->a`` never share an entry.
        """
        key = (from_asn, to_asn, anchor_pop)
        cached = self._ties_cache.get(key)
        if cached is not None:
            self._border_memo_hits += 1
            return cached
        self._border_memo_misses += 1
        candidates = self._border_candidates(from_asn, to_asn)
        if not candidates:
            raise NoRouteError(from_asn, to_asn)
        scored = sorted(
            ((self._pop_distance_km(c[2], anchor_pop), c[0].link_id, c)
             for c in candidates),
            key=lambda item: (item[0], item[1]))
        best_distance = scored[0][0]
        ties = tuple(c for dist, _lid, c in scored
                     if dist <= best_distance + 1.0)
        self._ties_cache[key] = ties
        return ties

    def _choose_border(self, from_asn: int, to_asn: int, anchor_pop: int,
                       flow_key: int) -> _Candidate:
        """Pick the border link a->b closest to *anchor_pop*.

        Parallel links at (essentially) the same distance are load
        balanced by a stable hash of the flow key, modelling ECMP over
        LAG members / parallel peering sessions.  Paris-traceroute keeps
        the flow key constant, so a given flow always sees one member.
        """
        ties = self._border_ties(from_asn, to_asn, anchor_pop)
        if len(ties) == 1:
            return ties[0]
        idx = stable_hash64(
            f"ecmp:{flow_key}:{ties[0][0].link_id}:{len(ties)}") % len(ties)
        return ties[idx]

    def take_memo_counts(self) -> Tuple[int, int]:
        """(hits, misses) of the border memos since the last take."""
        counts = (self._border_memo_hits, self._border_memo_misses)
        self._border_memo_hits = self._border_memo_misses = 0
        return counts

    def expand(self, as_path: Sequence[int], src_pop: int, dst_pop: int,
               first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
               last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
               mode: GraphMode = GraphMode.FULL,
               flow_id: int = 0) -> Route:
        """Expand an AS path into a concrete PoP/link route.

        *first_as_policy* governs the exit choice out of the first AS:
        cold-potato carries traffic on the first AS's backbone to the
        border nearest the destination (premium-tier egress).
        *last_as_policy* governs the crossing *into* the final AS:
        cold-potato models a transit delivering standard-tier traffic
        at the interconnection nearest the destination region, because
        standard-tier prefixes are only announced there.  Every other
        hand-off is hot-potato, as on the public Internet.

        *flow_id* feeds the ECMP hash, so different transport flows
        between the same endpoints may ride different parallel border
        links while one flow's path stays stable (paris-traceroute).
        """
        topo = self._topo
        if topo.pop(src_pop).asn != as_path[0]:
            raise RoutingError("src_pop is not in the first AS of as_path")
        if topo.pop(dst_pop).asn != as_path[-1]:
            raise RoutingError("dst_pop is not in the last AS of as_path")

        pops: List[int] = [src_pop]
        links: List[Tuple[int, int]] = []
        crossings: List[InterdomainLink] = []
        flow_key = (src_pop << 24) ^ (dst_pop << 4) ^ flow_id
        current = src_pop
        for i in range(len(as_path) - 1):
            here, there = as_path[i], as_path[i + 1]
            entering_last = (i == len(as_path) - 2)
            if i == 0 and first_as_policy is TierPolicy.COLD_POTATO:
                anchor = dst_pop
            elif entering_last and last_as_policy is TierPolicy.COLD_POTATO:
                anchor = dst_pop
            else:
                anchor = current
            chosen = self._choose_border(here, there, anchor, flow_key)
            record, link, near_pop, far_pop = chosen
            intra_pops, intra_links = self._intra_leg(here, current, near_pop)
            pops.extend(intra_pops)
            links.extend(intra_links)
            links.append((link.link_id, link.direction_from(near_pop)))
            pops.append(far_pop)
            crossings.append(record)
            current = far_pop
        # Final intra-AS leg to the destination PoP.
        last_asn = as_path[-1]
        intra_pops, intra_links = self._intra_leg(last_asn, current, dst_pop)
        pops.extend(intra_pops)
        links.extend(intra_links)
        return Route(tuple(as_path), tuple(pops), tuple(links),
                     mode=mode, border_crossings=tuple(crossings))

    def route(self, src_pop: int, dst_pop: int,
              mode: GraphMode = GraphMode.FULL,
              first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
              last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
              flow_id: int = 0) -> Route:
        """Compute the full route between two PoPs under a graph mode."""
        src_asn = self._topo.pop(src_pop).asn
        dst_asn = self._topo.pop(dst_pop).asn
        as_path = self.as_path(src_asn, dst_asn, mode)
        return self.expand(as_path, src_pop, dst_pop,
                           first_as_policy=first_as_policy,
                           last_as_policy=last_as_policy,
                           mode=mode, flow_id=flow_id)

    def invalidate_intra_cache(self, asn: Optional[int] = None) -> None:
        """Drop intra-AS tables and legs (for *asn* only, when given).

        Needed whenever a host is attached to an existing AS after
        routes were computed - the cached Dijkstra tables predate the
        new leaf.  AS-level RIBs stay valid (hosts don't change BGP).
        """
        for cache in (self._intra_cache, self._leg_cache):
            if asn is None:
                cache.clear()
                continue
            for key in [key for key in cache if key[0] == asn]:
                del cache[key]


def _better(cand: Tuple[int, int, int], cur: Tuple[int, int, int]) -> bool:
    """Route preference: class, then length, then lowest next hop."""
    return cand < cur
