"""Topology-based server selection.

The paper's pilot scan, per cloud region:

1. run **bdrmap** from a VM to discover the cloud's interdomain links,
2. **traceroute** (paris) from the VM to every U.S. test server,
3. resolve hop IPs with prefix-to-AS to estimate AS-path length,
4. match hops against bdrmap's far-side IPs (and their aliases) to
   find which interdomain link each server's path crosses,
5. group servers by far-side IP and pick, per link, the server with
   the shortest AS path (usually directly peering) and lowest RTT.

The selection is performed once at the start of the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ... import obs
from ...errors import NoRouteError, SelectionError
from ...netsim.routing import GraphMode, TierPolicy
from ...speedtest.catalog import ServerCatalog
from ...speedtest.server import SpeedTestServer
from ...tools.bdrmap import Bdrmap, BdrmapResult
from ...tools.prefix2as import Prefix2AS
from ...tools.traceroute import Scamper, Traceroute

__all__ = ["SelectedServer", "TopologySelection", "TopologySelector"]


@dataclass(frozen=True)
class SelectedServer:
    """One server chosen to represent one interdomain link."""

    server_id: str
    far_ip: int
    neighbor_asn: Optional[int]
    as_path_length: int
    rtt_ms: float


@dataclass
class TopologySelection:
    """Everything the pilot scan produced for one region."""

    region: str
    bdrmap: BdrmapResult
    #: server_id -> far-side IP its trace crossed (None = unmatched)
    server_links: Dict[str, Optional[int]] = field(default_factory=dict)
    #: server_id -> RTT (ms) observed in its pilot traceroute
    server_rtts: Dict[str, float] = field(default_factory=dict)
    #: far-side IP -> server ids sharing that interconnection
    groups: Dict[int, List[str]] = field(default_factory=dict)
    #: far-side *router* (canonical far IP after alias merging) ->
    #: server ids.  Parallel LAG members collapse here; selection picks
    #: one server per router, so measured servers cover only a subset
    #: of the traversed far-side IPs (Table 1's coverage column).
    router_groups: Dict[int, List[str]] = field(default_factory=dict)
    selected: List[SelectedServer] = field(default_factory=list)

    @property
    def n_interdomain_links(self) -> int:
        """Links bdrmap discovered in this region (Table 1, col. 1)."""
        return len(self.bdrmap)

    @property
    def n_links_traversed(self) -> int:
        """Distinct links all U.S. servers crossed (Table 1, col. 2)."""
        return len(self.groups)

    @property
    def shared_interconnection_fraction(self) -> float:
        """Fraction of traced servers that share a link with another."""
        matched = [fip for fip in self.server_links.values()
                   if fip is not None]
        if not matched:
            return 0.0
        return 1.0 - len(set(matched)) / len(matched)

    def selected_ids(self, budget: Optional[int] = None) -> List[str]:
        """Server ids to deploy, optionally truncated to a budget."""
        ids = [s.server_id for s in self.selected]
        return ids if budget is None else ids[:budget]

    def links_covered_by(self, server_ids: Sequence[str]) -> int:
        """Distinct links covered by a measured subset (Table 1, col 3)."""
        chosen = set(server_ids)
        return len({s.far_ip for s in self.selected
                    if s.server_id in chosen})

    def coverage(self, server_ids: Sequence[str]) -> float:
        """Covered / traversed fraction (Table 1's 20.7 - 69.4 %)."""
        if not self.groups:
            return 0.0
        return self.links_covered_by(server_ids) / self.n_links_traversed


class TopologySelector:
    """Runs the pilot scan and the per-link server choice."""

    def __init__(self, bdrmap: Bdrmap, scamper: Scamper,
                 prefix2as: Prefix2AS, catalog: ServerCatalog) -> None:
        self._bdrmap = bdrmap
        self._scamper = scamper
        self._p2a = prefix2as
        self._catalog = catalog

    # ------------------------------------------------------------------

    def trace_to_server(self, src_pop_id: int, server: SpeedTestServer,
                        ts: float) -> Optional[Traceroute]:
        """Premium-tier (cold potato) forward trace to one server."""
        try:
            return self._scamper.trace_to_ip(
                src_pop_id, server.ip, ts,
                mode=GraphMode.FULL,
                first_as_policy=TierPolicy.COLD_POTATO,
                flow_id=server.ip & 0xFFFFF)
        except NoRouteError:
            return None

    def as_path_length(self, trace: Traceroute) -> int:
        """Distinct origin ASNs along the responding hops."""
        path: List[int] = []
        for ip in trace.responding_ips():
            asn = self._p2a.lookup(ip)
            if asn is None:
                continue
            if not path or path[-1] != asn:
                path.append(asn)
        # Collapse A-B-A bounces caused by link addressing quirks.
        dedup: List[int] = []
        for asn in path:
            if asn not in dedup:
                dedup.append(asn)
        return len(dedup)

    # ------------------------------------------------------------------

    def run(self, region: str, src_pop_id: int, ts: float,
            country: str = "US") -> TopologySelection:
        """Full pilot scan for one region."""
        with obs.span("selection.topology.run"):
            selection = self._run(region, src_pop_id, ts, country)
        return selection

    def _run(self, region: str, src_pop_id: int, ts: float,
             country: str) -> TopologySelection:
        bdr_result = self._bdrmap.run(src_pop_id, ts)
        selection = TopologySelection(region=region, bdrmap=bdr_result)
        hop_index = bdr_result.build_hop_index()

        servers = self._catalog.servers(country=country)
        if not servers:
            raise SelectionError(f"no servers in country {country!r}")

        per_server: Dict[str, Tuple[Optional[int], int, float]] = {}
        for server in servers:
            trace = self.trace_to_server(src_pop_id, server, ts)
            if trace is None:
                continue
            far_ip: Optional[int] = None
            for ip in trace.responding_ips():
                hit = hop_index.get(ip)
                if hit is not None:
                    far_ip = hit
                    break
            rtt = trace.rtt_ms if trace.rtt_ms is not None else float("inf")
            per_server[server.server_id] = (
                far_ip, self.as_path_length(trace), rtt)
            selection.server_links[server.server_id] = far_ip
            selection.server_rtts[server.server_id] = rtt
            if far_ip is not None:
                selection.groups.setdefault(far_ip, []).append(
                    server.server_id)

        # Collapse parallel LAG members: far-side IPs whose alias sets
        # intersect belong to one border router ("interconnection").
        canonical: Dict[int, int] = {}
        for far_ip in selection.groups:
            aliases = bdr_result.far_aliases.get(far_ip, frozenset())
            siblings = [a for a in aliases if a in selection.groups]
            siblings.append(far_ip)
            canonical[far_ip] = min(siblings)
        for far_ip, ids in sorted(selection.groups.items()):
            root = canonical[far_ip]
            selection.router_groups.setdefault(root, []).extend(ids)

        # One server per interconnection: shortest AS path, then lowest
        # RTT, then stable id.
        for root, ids in sorted(selection.router_groups.items()):
            best = min(ids, key=lambda sid: (
                per_server[sid][1], per_server[sid][2], sid))
            far, path_len, rtt = per_server[best]
            assert far is not None
            link = bdr_result.links.get(far)
            selection.selected.append(SelectedServer(
                server_id=best,
                far_ip=far,
                neighbor_asn=link.neighbor_asn if link else None,
                as_path_length=path_len,
                rtt_ms=rtt,
            ))
        # Deterministic deployment order: closest (lowest RTT) first,
        # which is also how the paper biased its budget-capped subsets.
        selection.selected.sort(key=lambda s: (s.rtt_ms, s.server_id))
        return selection
