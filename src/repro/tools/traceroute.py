"""Scamper-style paris-traceroute.

Renders a routed path as the hop list a traceroute would show: each
hop is the *ingress* interface of the receiving router (or its
loopback when the link is unnumbered), with cumulative RTTs including
queueing at probe time.  Paris-traceroute semantics: the flow
identifier is held constant, so per-flow ECMP decisions are stable
within one trace, and varying ``flow_id`` across traces exposes
parallel links - which is how bdrmap enumerates LAG members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import obs
from ..netsim.addressing import format_ip
from ..netsim.linkstate import LinkStateEvaluator
from ..netsim.routing import GraphMode, Route, Router, TierPolicy
from ..netsim.topology import Link, Topology
from ..rng import SeedTree
from ..errors import NoRouteError

__all__ = ["Hop", "Traceroute", "Scamper"]

#: Probability that a router on the path does not answer a probe.
NO_RESPONSE_RATE = 0.02


class Hop(NamedTuple):
    """One traceroute hop.  ``ip`` is None for a non-responding hop.

    A named tuple: a region sweep builds tens of thousands of hops, and
    a tuple is the cheapest immutable record to construct.
    """

    ttl: int
    ip: Optional[int]
    rtt_ms: Optional[float]

    def __repr__(self) -> str:
        if self.ip is None:
            return f"Hop({self.ttl}, *)"
        return f"Hop({self.ttl}, {format_ip(self.ip)}, {self.rtt_ms:.1f}ms)"


@dataclass(frozen=True)
class Traceroute:
    """A completed trace: source/destination plus the hop list."""

    src_ip: int
    dst_ip: int
    ts: float
    flow_id: int
    hops: Tuple[Hop, ...]
    reached: bool

    def responding_ips(self) -> List[int]:
        return [h.ip for h in self.hops if h.ip is not None]

    @property
    def rtt_ms(self) -> Optional[float]:
        """RTT to the destination, when it was reached."""
        if not self.reached or not self.hops:
            return None
        return self.hops[-1].rtt_ms


class Scamper:
    """Traceroute engine bound to a topology + routing engine.

    A small per-router non-response probability (:data:`NO_RESPONSE_RATE`)
    models ICMP rate limiting and filtered routers.  The destination
    host always responds (speed test servers are live web servers).
    """

    def __init__(self, topology: Topology, router: Router,
                 evaluator: Optional[LinkStateEvaluator] = None,
                 seeds: Optional[SeedTree] = None) -> None:
        self._topo = topology
        self._router = router
        self._eval = evaluator
        self._rng = (seeds or SeedTree(0)).generator("scamper")
        # (link_id, receiving PoP) -> (link, address the hop replies
        # from).  Links and their interfaces never change once added.
        self._hop_of: Dict[Tuple[int, int], Tuple[Link, int]] = {}

    def _hop_entry(self, link_id: int, receiver_pop_id: int
                   ) -> Tuple[Link, int]:
        """The link and the receiving router's ingress address (its
        loopback when the link is unnumbered on that side)."""
        topo = self._topo
        link = topo.link(link_id)
        iface = link.interface_at(receiver_pop_id)
        ip = (iface.ip if iface is not None
              else topo.pop(receiver_pop_id).loopback_ip)
        entry = self._hop_of[(link_id, receiver_pop_id)] = (link, ip)
        return entry

    # ------------------------------------------------------------------

    def trace_route(self, route: Route, ts: float,
                    dst_ip: Optional[int] = None,
                    flow_id: int = 0) -> Traceroute:
        """Render an already computed route as a traceroute.

        *dst_ip* is the probed destination address: the final hop is
        the destination itself replying from that address (a probed
        host replies from the probed IP, not from a router interface).
        When omitted, the destination PoP's loopback stands in.
        """
        topo = self._topo
        src_pop = topo.pop(route.src_pop)
        target_ip = (dst_ip if dst_ip is not None
                     else topo.pop(route.dst_pop).loopback_ip)
        hops: List[Hop] = []
        cumulative_oneway = 0.0
        reached_target = False
        hop_of = self._hop_of
        observe = self._eval.observe if self._eval is not None else None
        rng = self._rng
        receivers = route.pops
        for ttl, (link_id, direction) in enumerate(route.links, 1):
            entry = hop_of.get((link_id, receivers[ttl]))
            if entry is None:
                entry = self._hop_entry(link_id, receivers[ttl])
            link, ip = entry
            cumulative_oneway += link.delay_ms
            if observe is not None:
                cumulative_oneway += observe(link, direction, ts).queue_delay_ms
            # The destination itself always answers; routers may not.
            is_target = ip == target_ip
            if is_target or rng.random() >= NO_RESPONSE_RATE:
                rtt = 2.0 * cumulative_oneway + float(rng.exponential(0.4))
                hops.append(Hop(ttl, ip, rtt))
            else:
                hops.append(Hop(ttl, None, None))
            reached_target = reached_target or is_target
        if not reached_target:
            # The probed address lives behind the final router (a host
            # in the announced prefix): one more hop, one more reply.
            last_mile = float(self._rng.uniform(0.1, 0.8))
            rtt = 2.0 * (cumulative_oneway + last_mile) + float(
                self._rng.exponential(0.4))
            hops.append(Hop(len(route.links) + 1, target_ip, rtt))
        obs.inc("tools.traceroute.traces")
        obs.observe("tools.traceroute.hops", len(hops))
        return Traceroute(
            src_ip=src_pop.loopback_ip,
            dst_ip=target_ip,
            ts=ts,
            flow_id=flow_id,
            hops=tuple(hops),
            reached=True,
        )

    def trace(self, src_pop_id: int, dst_pop_id: int, ts: float,
              mode: GraphMode = GraphMode.FULL,
              first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
              last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
              flow_id: int = 0,
              dst_ip: Optional[int] = None) -> Traceroute:
        """Compute the route and render the trace in one call."""
        route = self._router.route(src_pop_id, dst_pop_id, mode=mode,
                                   first_as_policy=first_as_policy,
                                   last_as_policy=last_as_policy,
                                   flow_id=flow_id)
        return self.trace_route(route, ts, dst_ip=dst_ip, flow_id=flow_id)

    def trace_flows(self, src_pop_id: int, dst_pop_id: int, ts: float,
                    flow_ids: Sequence[int],
                    mode: GraphMode = GraphMode.FULL,
                    first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
                    last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
                    dst_ip: Optional[int] = None) -> List[Traceroute]:
        """:meth:`trace` once per flow ID, in order, over one AS path.

        The AS path does not depend on the flow, so it is computed once.
        Tracing stops at the first flow without a route: at once when
        policy leaves the destination AS unreachable.
        """
        router = self._router
        topo = self._topo
        traces: List[Traceroute] = []
        try:
            as_path = router.as_path(topo.pop(src_pop_id).asn,
                                     topo.pop(dst_pop_id).asn, mode)
            for flow_id in flow_ids:
                route = router.expand(as_path, src_pop_id, dst_pop_id,
                                      first_as_policy=first_as_policy,
                                      last_as_policy=last_as_policy,
                                      mode=mode, flow_id=flow_id)
                traces.append(self.trace_route(route, ts, dst_ip=dst_ip,
                                               flow_id=flow_id))
        except NoRouteError:
            pass
        return traces

    def trace_to_ip(self, src_pop_id: int, dst_ip: int, ts: float,
                    mode: GraphMode = GraphMode.FULL,
                    first_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
                    last_as_policy: TierPolicy = TierPolicy.HOT_POTATO,
                    flow_id: int = 0) -> Optional[Traceroute]:
        """Probe an IP address, resolving where the probe lands.

        Returns ``None`` for unrouted addresses (no covering prefix).
        """
        dst_pop = self._topo.resolve_ip_to_pop(dst_ip)
        if dst_pop is None:
            return None
        return self.trace(src_pop_id, dst_pop.pop_id, ts, mode=mode,
                          first_as_policy=first_as_policy,
                          last_as_policy=last_as_policy,
                          flow_id=flow_id, dst_ip=dst_ip)
