"""End-to-end path performance: compose link states along a route.

:class:`PathPerformanceModel` is the single place where a routed path
plus the traffic model turns into the numbers a transport flow sees:
round-trip time (propagation + queueing on both directions), the data
direction's loss rate, and the available (residual) bandwidth at the
path bottleneck.  The speed test protocol then applies the TCP model
and endpoint rate limits on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .linkstate import LinkObservation, LinkStateEvaluator
from .routing import Route
from .topology import Topology
from ..errors import ValidationError

__all__ = ["PathMetrics", "PathPerformanceModel"]


@dataclass(frozen=True)
class PathMetrics:
    """Transport-relevant state of a forward/reverse path pair at time t.

    The *forward* direction is the direction the bulk data flows; RTT
    includes the reverse direction's propagation and queueing as well.
    """

    rtt_ms: float
    loss_rate: float
    avail_mbps: float
    forward: Tuple[LinkObservation, ...]
    reverse: Tuple[LinkObservation, ...]
    #: Correlated micro-burst loss accumulated on the data direction.
    burst_loss_rate: float = 0.0

    @property
    def measured_loss_rate(self) -> float:
        """What a packet capture counts: smooth plus bursty drops."""
        return min(0.95, 1.0 - (1.0 - self.loss_rate)
                   * (1.0 - self.burst_loss_rate))

    #: How much of the bursty loss TCP "feels": correlated drops inside
    #: one RTT window cost a single multiplicative decrease however
    #: many packets the burst ate, so the throughput-relevant fraction
    #: of burst loss is tiny compared to independent loss.
    BURST_TCP_WEIGHT = 0.002

    @property
    def tcp_effective_loss_rate(self) -> float:
        """Loss rate the (independent-loss) TCP model should be fed."""
        return min(0.95, self.loss_rate
                   + self.BURST_TCP_WEIGHT * self.burst_loss_rate)

    @property
    def bottleneck(self) -> LinkObservation:
        """The forward-direction link with the least residual bandwidth."""
        if not self.forward:
            raise ValidationError("path has no forward links")
        return min(self.forward, key=lambda obs: obs.residual_mbps)

    @property
    def max_forward_utilization(self) -> float:
        """Highest background utilization on the data direction."""
        return max((obs.utilization for obs in self.forward), default=0.0)

    @property
    def congested(self) -> bool:
        """True when any forward link is saturated by background load."""
        return any(obs.saturated for obs in self.forward)


class PathPerformanceModel:
    """Evaluates routed paths against the time-varying traffic model.

    A route's propagation delay depends only on its links' fixed
    delays, so it is summed once per :class:`~repro.netsim.routing.Route`
    object and memoized for the model's lifetime (the platform caches
    its routes, so the memo holds one entry per cached route).
    """

    def __init__(self, topology: Topology,
                 evaluator: LinkStateEvaluator) -> None:
        self._topo = topology
        self._eval = evaluator
        # id(route) -> (the route, its propagation delay in ms)
        self._propagation: Dict[int, Tuple[Route, float]] = {}

    @property
    def topology(self) -> Topology:
        return self._topo

    @property
    def evaluator(self) -> LinkStateEvaluator:
        return self._eval

    def _propagation_ms(self, route: Route) -> float:
        entry = self._propagation.get(id(route))
        if entry is None or entry[0] is not route:
            entry = self._propagation[id(route)] = (
                route, route.propagation_delay_ms(self._topo))
        return entry[1]

    def observe_route(self, route: Route, ts: float,
                      reverse: bool = False) -> List[LinkObservation]:
        """Observe every link of *route* in its traversal direction.

        With ``reverse=True`` each link is observed in the opposite
        direction, modelling the ACK/return path when no asymmetric
        reverse route is supplied.
        """
        link = self._topo.link
        observe = self._eval.observe
        flip = 1 if reverse else 0
        return [observe(link(link_id), direction ^ flip, ts)
                for link_id, direction in route.links]

    def evaluate(self, forward_route: Route, ts: float,
                 reverse_route: Optional[Route] = None) -> PathMetrics:
        """Compute :class:`PathMetrics` for a data path at time *ts*.

        *forward_route* carries the bulk data.  When *reverse_route* is
        omitted the reverse direction is the same links traversed
        backwards; with service tiers the two directions genuinely
        differ and the caller passes the asymmetric return route.
        """
        fwd_obs = self.observe_route(forward_route, ts)
        fwd_prop = self._propagation_ms(forward_route)
        if reverse_route is None:
            rev_obs = self.observe_route(forward_route, ts, reverse=True)
            rev_prop = fwd_prop
        else:
            rev_obs = self.observe_route(reverse_route, ts)
            rev_prop = self._propagation_ms(reverse_route)

        # One left fold per direction, in sum()'s and min()'s order:
        # queues from 0, survivals from 1.0, the first least residual.
        fwd_queue = 0
        survive = 1.0
        burst_survive = 1.0
        avail = float("inf")
        for obs in fwd_obs:
            fwd_queue += obs.queue_delay_ms
            survive *= (1.0 - obs.loss_rate)
            burst_survive *= (1.0 - obs.burst_loss)
            if obs.residual_mbps < avail:
                avail = obs.residual_mbps
        rev_queue = 0
        for obs in rev_obs:
            rev_queue += obs.queue_delay_ms
        rtt = fwd_prop + rev_prop + fwd_queue + rev_queue
        loss = 1.0 - survive

        return PathMetrics(
            rtt_ms=rtt,
            loss_rate=min(0.95, max(0.0, loss)),
            avail_mbps=avail,
            forward=tuple(fwd_obs),
            reverse=tuple(rev_obs),
            burst_loss_rate=min(0.95, max(0.0, 1.0 - burst_survive)),
        )
