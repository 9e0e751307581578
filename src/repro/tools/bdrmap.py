"""bdrmap-style border inference.

Infers the interdomain links between the vantage point's network (the
cloud) and its neighbors from traceroute evidence, the prefix-to-AS
dataset, and alias resolution - *not* from simulator ground truth.

The central ambiguity bdrmap resolves: the interdomain /30 is usually
numbered from one side's address space (for cloud peering, usually the
cloud's), so the far-side router's ingress interface can map to the
cloud in prefix-to-AS even though the router belongs to the neighbor.
We resolve router ownership the way alias-resolution-driven inference
does: an alias set usually recovers the router ID (loopback), which is
numbered from the operator's space; when it does not, we fall back to
a majority vote over the aliases' origin ASNs, which occasionally gets
a border off by one hop, just like the real tool chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..netsim.addressing import format_ip
from ..netsim.routing import GraphMode, TierPolicy
from ..netsim.topology import Topology
from ..rng import SeedTree
from .prefix2as import Prefix2AS
from .traceroute import Scamper, Traceroute

__all__ = ["AliasResolver", "InferredLink", "BdrmapResult", "Bdrmap"]

#: Probability that alias resolution misses one of a router's other
#: interfaces, and its router ID (loopback).
MISS_RATE = 0.10
LOOPBACK_MISS_RATE = 0.12


class AliasResolver:
    """MIDAR-style alias resolution against the simulated routers.

    Resolution is imperfect: each non-queried interface of the router
    is recovered with probability ``1 - MISS_RATE``; the router ID
    (loopback) is recovered with probability ``1 - LOOPBACK_MISS_RATE``.
    Results are deterministic per queried IP.
    """

    def __init__(self, topology: Topology,
                 seeds: Optional[SeedTree] = None) -> None:
        self._topo = topology
        # Re-rooting at the derived seed keeps per-ip streams identical
        # to the historical `seed ^ stable_hash64(label)` derivation.
        self._rng_tree = SeedTree((seeds or SeedTree(0)).seed("alias-resolver"))
        self._cache: Dict[int, FrozenSet[int]] = {}

    def resolve(self, ip: int) -> FrozenSet[int]:
        """Return the recovered alias set of *ip* (always contains it)."""
        cached = self._cache.get(ip)
        if cached is not None:
            return cached
        truth = self._topo.aliases_of(ip)
        if not truth:
            result = frozenset({ip})
            self._cache[ip] = result
            return result
        iface = self._topo.interface_by_ip(ip)
        loopback = (self._topo.pop(iface.pop_id).loopback_ip
                    if iface is not None else None)
        rng = self._rng_tree.generator(f"alias:{ip}")
        kept: Set[int] = {ip}
        for alias in sorted(truth):
            if alias == ip:
                continue
            rate = LOOPBACK_MISS_RATE if alias == loopback else MISS_RATE
            if rng.random() >= rate:
                kept.add(alias)
        result = frozenset(kept)
        self._cache[ip] = result
        return result


@dataclass
class InferredLink:
    """One inferred border link of the VP network."""

    far_ip: int
    near_ip: Optional[int]
    neighbor_asn: int
    n_traces: int = 1
    #: True when the far side was identified through alias evidence
    #: (interdomain subnet numbered from VP space).
    via_alias: bool = False

    def __repr__(self) -> str:
        return (f"InferredLink(far={format_ip(self.far_ip)}, "
                f"AS{self.neighbor_asn}, n={self.n_traces})")


@dataclass
class BdrmapResult:
    """The inferred border map of the VP network."""

    vp_asn: int
    links: Dict[int, InferredLink] = field(default_factory=dict)  # far_ip ->
    #: far_ip -> full alias set of the far-side router (for matching
    #: traceroute hops against borders "and their aliases").
    far_aliases: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    def far_ips(self) -> Set[int]:
        return set(self.links)

    def neighbors(self) -> Set[int]:
        return {l.neighbor_asn for l in self.links.values()}

    def build_hop_index(self) -> Dict[int, int]:
        """alias IP -> far-side IP index for bulk matching."""
        index: Dict[int, int] = {}
        for far_ip, aliases in self.far_aliases.items():
            for alias in aliases:
                index.setdefault(alias, far_ip)
        for far_ip in self.links:
            index[far_ip] = far_ip
        return index

    def __len__(self) -> int:
        return len(self.links)


class Bdrmap:
    """Runs the probing + inference pipeline from one vantage point."""

    def __init__(self, topology: Topology, scamper: Scamper,
                 prefix2as: Prefix2AS, vp_asn: int,
                 alias_resolver: Optional[AliasResolver] = None) -> None:
        self._topo = topology
        self._scamper = scamper
        self._p2a = prefix2as
        self.vp_asn = vp_asn
        self._aliases = alias_resolver or AliasResolver(topology)

    # ------------------------------------------------------------------
    # probing

    def probe_targets(self) -> List[Tuple[int, int]]:
        """(probe address, destination PoP) per routed foreign prefix.

        Mirrors real bdrmap probing one random address inside every
        routed prefix of the BGP table.
        """
        targets: List[Tuple[int, int]] = []
        for prefix, pop_id in self._topo.announced_prefixes():
            pop = self._topo.pop(pop_id)
            if pop.asn == self.vp_asn:
                continue
            probe_ip = prefix.network + (1 if prefix.length < 32 else 0)
            targets.append((probe_ip, pop_id))
        return targets

    def collect_traces(self, src_pop_id: int, ts: float,
                       targets: Optional[Sequence[Tuple[int, int]]] = None,
                       flow_ids: Sequence[int] = (0, 1, 2),
                       mode: GraphMode = GraphMode.FULL,
                       first_as_policy: TierPolicy = TierPolicy.COLD_POTATO,
                       ) -> List[Traceroute]:
        """Traceroute every target with several paris flow IDs.

        Varying the flow ID across traces walks the ECMP hash over
        parallel border links, which is how LAG members are enumerated.
        """
        if targets is None:
            targets = self.probe_targets()
        traces: List[Traceroute] = []
        for probe_ip, dst_pop in targets:
            # Real ECMP hashes the 5-tuple: destination address and
            # source port both move the flow across LAG members.
            low_bits = probe_ip & 0xFFFFF
            traces += self._scamper.trace_flows(
                src_pop_id, dst_pop, ts,
                [(flow_id << 20) ^ low_bits for flow_id in flow_ids],
                mode=mode, first_as_policy=first_as_policy, dst_ip=probe_ip)
        return traces

    # ------------------------------------------------------------------
    # inference

    def _foreign_alias_evidence(self, ip: int,
                                hint_asn: int) -> Optional[int]:
        """Foreign owner of *ip*'s router, per alias evidence, or None.

        This is the alias test that moves a border one hop closer to
        the VP: a hop whose address maps to the VP but whose router has
        own-space aliases (loopback, its other interfaces) in a foreign
        AS's space is a foreign border router, its ingress interface
        merely being numbered from the VP's /30.  A true VP border
        router never carries foreign addresses when the VP numbers its
        interconnects from its own space.

        The owner is the majority foreign ASN among the aliases, with
        the trace-context *hint* breaking ties - routers carry
        third-party addresses (their own customer links numbered from
        the customer's space), the classic bdrmap ambiguity.
        """
        owners: Dict[int, int] = {}
        for alias in self._aliases.resolve(ip):
            if alias == ip:
                continue
            asn = self._p2a.lookup(alias)
            if asn is not None and asn != self.vp_asn:
                owners[asn] = owners.get(asn, 0) + 1
        if not owners:
            return None
        return max(owners, key=lambda a: (owners[a], a == hint_asn, -a))

    def infer(self, traces: Iterable[Traceroute]) -> BdrmapResult:
        """Infer the VP network's border links from traces."""
        result = BdrmapResult(vp_asn=self.vp_asn)
        for trace in traces:
            inferred = self._infer_one(trace)
            if inferred is None:
                continue
            far_ip, near_ip, neighbor, via_alias = inferred
            existing = result.links.get(far_ip)
            if existing is None:
                result.links[far_ip] = InferredLink(
                    far_ip=far_ip, near_ip=near_ip, neighbor_asn=neighbor,
                    n_traces=1, via_alias=via_alias)
                result.far_aliases[far_ip] = self._aliases.resolve(far_ip)
            else:
                existing.n_traces += 1
        return result

    def _infer_one(self, trace: Traceroute
                   ) -> Optional[Tuple[int, Optional[int], int, bool]]:
        """(far_ip, near_ip, neighbor_asn, via_alias) or None."""
        hops = trace.responding_ips()
        if len(hops) < 2:
            return None
        first_foreign = None
        for idx, ip in enumerate(hops):
            asn = self._p2a.lookup(ip)
            if asn is not None and asn != self.vp_asn:
                first_foreign = idx
                break
        if first_foreign is None or first_foreign == 0:
            # Either the whole visible path maps to the VP (border is
            # hidden behind non-responding hops) or the trace starts
            # outside the VP; neither yields a confident border.
            return None
        j = first_foreign
        foreign_asn = self._p2a.lookup(hops[j])
        assert foreign_asn is not None
        prev_ip = hops[j - 1]
        owner = self._foreign_alias_evidence(prev_ip, foreign_asn)
        if owner is not None:
            # VP-numbered interconnect: the previous hop is the far
            # side (the neighbor's ingress interface in VP space).
            near_ip = hops[j - 2] if j >= 2 else None
            return prev_ip, near_ip, owner, True
        if hops[j] == trace.dst_ip:
            # The only foreign evidence is the probed destination
            # itself: the border sits somewhere among the VP-mapped
            # hops but cannot be placed confidently.  Real bdrmap
            # refuses to call a destination address a router interface.
            return None
        # Neighbor-numbered interconnect (or alias evidence missed):
        # the first foreign hop is the far side itself.
        return hops[j], prev_ip, foreign_asn, False

    def run(self, src_pop_id: int, ts: float,
            targets: Optional[Sequence[Tuple[int, int]]] = None,
            flow_ids: Sequence[int] = (0, 1, 2, 3, 4, 5)) -> BdrmapResult:
        """Probe + infer in one call (the paper's "pilot scan")."""
        with obs.span("tools.bdrmap.run"):
            traces = self.collect_traces(src_pop_id, ts, targets=targets,
                                         flow_ids=flow_ids)
            result = self.infer(traces)
        obs.inc("tools.bdrmap.runs")
        return result
