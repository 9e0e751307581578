"""Instantaneous link state: residual bandwidth, loss, queueing delay.

Given a link's capacity and its background utilization at time *t*
(from :class:`~repro.netsim.traffic.UtilizationModel`), this module
computes what a measurement flow experiences on that link:

* **residual bandwidth** - how much of the capacity a new elastic flow
  set can claim.  Below saturation this is simply the unused capacity;
  once offered load reaches capacity, loss-based TCP fairness leaves a
  small contested share rather than exactly zero.
* **loss rate** - negligible until high utilization, rising steeply as
  the queue saturates; above capacity the drop rate is the structural
  overflow fraction ``(u - 1) / u`` plus the queue-full component.
* **queueing delay** - an M/M/1-flavoured delay that grows with
  utilization and is capped at the buffer depth (bufferbloat ceiling).

The numbers are per-link; :mod:`repro.netsim.pathmodel` composes them
along a route.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .topology import Link, LinkKind
from .traffic import UtilizationModel
from ..errors import ValidationError

__all__ = ["FlapHook", "LinkObservation", "LinkStateEvaluator"]

#: Utilization where queueing loss begins.
_LOSS_ONSET = 0.92
#: Loss rate reached right at u == 1.0 from queue pressure alone.
_LOSS_AT_CAPACITY = 0.012
#: Sub-onset loss grows gently with utilization (transient bursts on a
#: loaded link drop a few packets long before sustained overload);
#: coefficient of the u^4 term.
_SUBONSET_COEF = 4e-4
#: Baseline residual loss floor on any link (bit errors, transient
#: bursts).  Paths accumulate a few of these, giving healthy paths the
#: 1e-4 .. 1e-3 loss regime that bounds TCP throughput below link rate.
_FLOOR_LOSS = {
    LinkKind.BACKBONE: 1e-5,
    LinkKind.INTERDOMAIN: 2e-5,
    LinkKind.ACCESS: 5e-5,
    LinkKind.LAN: 6e-6,
}
#: Queueing delay parameters: service quantum and buffer cap per kind.
_QUEUE_BASE_MS = {
    LinkKind.BACKBONE: 0.03,
    LinkKind.INTERDOMAIN: 0.06,
    LinkKind.ACCESS: 0.12,
    LinkKind.LAN: 0.02,
}
_QUEUE_CAP_MS = {
    LinkKind.BACKBONE: 12.0,
    LinkKind.INTERDOMAIN: 30.0,
    LinkKind.ACCESS: 60.0,
    LinkKind.LAN: 5.0,
}
#: Share of capacity still winnable by an aggressive multi-flow test
#: when the link is exactly saturated (contested share floor).
_CONTESTED_SHARE = 0.12
#: Each kind's (loss floor, queue base ms, queue cap ms), keyed by the
#: member's ``id()``: an int key skips ``Enum``'s Python-level
#: ``__hash__``, which three kind-keyed lookups per observation paid.
_KIND_CONSTANTS = {id(kind): (_FLOOR_LOSS[kind], _QUEUE_BASE_MS[kind],
                              _QUEUE_CAP_MS[kind]) for kind in LinkKind}


class LinkObservation(NamedTuple):
    """What one direction of one link looks like at one instant.

    A named tuple: a campaign builds one per observation-memo miss, and
    a tuple is the cheapest immutable record to construct.
    """

    link_id: int
    direction: int
    capacity_mbps: float
    utilization: float
    residual_mbps: float
    loss_rate: float
    queue_delay_ms: float
    #: Correlated micro-burst loss (see :class:`~repro.netsim.topology.Link`).
    burst_loss: float = 0.0

    @property
    def saturated(self) -> bool:
        """True when background load alone meets or exceeds capacity."""
        return self.utilization >= 1.0


# The three formulas below are the one scalar definition of each (the
# static methods validate, then call them).  Conditional expressions
# stand in for the builtin min()/max() calls: they pick the same operand
# (min/max keep the first of equal values), without a call.


def _residual(capacity_mbps: float, utilization: float) -> float:
    """Bandwidth a new elastic flow set can claim (unchecked inputs)."""
    free = capacity_mbps * (1.0 - utilization)
    # Even on a saturated link, loss-based congestion control lets an
    # aggressive multi-flow test carve out a contested share that
    # shrinks as overload deepens.  Written in multiplication form
    # (not **) so the numpy batch path reproduces it bit-for-bit.
    over = utilization if utilization > 1.0 else 1.0
    contested = capacity_mbps * _CONTESTED_SHARE / (over * over)
    return contested if contested > free else free


def _loss(utilization: float, floor: float) -> float:
    """Packet loss fraction over a per-kind loss *floor* (unchecked)."""
    # u^4 in multiplication form: bit-identical to the numpy twin.
    u_sq = utilization * utilization
    burst = _SUBONSET_COEF * (u_sq * u_sq)
    if utilization <= _LOSS_ONSET:
        return floor + burst
    if utilization <= 1.0:
        ramp = (utilization - _LOSS_ONSET) / (1.0 - _LOSS_ONSET)
        return floor + burst + _LOSS_AT_CAPACITY * ramp * ramp
    # Over capacity: the structural overflow fraction dominates.
    overflow = (utilization - 1.0) / utilization
    loss = floor + burst + _LOSS_AT_CAPACITY + overflow
    return loss if loss < 0.9 else 0.9


def _queue(utilization: float, base: float, cap: float) -> float:
    """Queueing delay in ms for a per-kind service quantum and buffer
    cap (unchecked)."""
    if utilization >= 1.0:
        return cap
    u = 0.995 if utilization > 0.995 else utilization
    mm1 = base * u / (1.0 - u)
    return mm1 if mm1 < cap else cap


#: Fault hook signature: ``(link_id, direction, ts)`` returning a
#: utilization floor the link is forced to while flapped, or ``None``.
FlapHook = Callable[[int, int, float], Optional[float]]


class LinkStateEvaluator:
    """Computes :class:`LinkObservation` records from the traffic model.

    An observation is a pure function of the link, the direction, the
    instant, the utilization profiles and the flap hook, so
    :meth:`observe` memoizes the observations of the current instant by
    ``(link_id, direction)``.  The memo is dropped when *ts* changes,
    when the flap hook is swapped and when a profile is set on the
    utilization model (its :attr:`~UtilizationModel.version`); an entry
    whose link has since changed capacity or burst loss is recomputed.
    It therefore never holds more than one instant's entries.
    """

    def __init__(self, utilization_model: UtilizationModel,
                 flap_hook: Optional[FlapHook] = None) -> None:
        self._util = utilization_model
        self._flap_hook = flap_hook
        self._memo: Dict[Tuple[int, int], LinkObservation] = {}
        self._memo_ts: Optional[float] = None
        self._memo_version = utilization_model.version
        self._memo_hits = 0
        self._memo_misses = 0

    @property
    def utilization_model(self) -> UtilizationModel:
        return self._util

    def set_flap_hook(self, hook: Optional[FlapHook]) -> None:
        """Install (or clear) a deterministic link-flap fault hook."""
        self._flap_hook = hook
        self._memo.clear()

    @property
    def flap_hook(self) -> Optional[FlapHook]:
        """The installed flap hook (batch evaluators query it directly)."""
        return self._flap_hook

    def take_memo_counts(self) -> Tuple[int, int]:
        """(hits, misses) of the observation memo since the last take."""
        counts = (self._memo_hits, self._memo_misses)
        self._memo_hits = self._memo_misses = 0
        return counts

    def observe(self, link: Link, direction: int, ts: float) -> LinkObservation:
        """Evaluate one link direction at simulated time *ts*."""
        memo = self._memo
        version = self._util.version
        if ts != self._memo_ts or version != self._memo_version:
            memo.clear()
            self._memo_ts = ts
            self._memo_version = version
        link_id = link.link_id
        key = (link_id, direction)
        cached = memo.get(key)
        capacity = link.capacity_mbps
        burst_loss = link.burst_loss
        if cached is not None and cached.capacity_mbps == capacity and \
                cached.burst_loss == burst_loss:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        if capacity <= 0:
            raise ValidationError(f"capacity must be positive: {capacity}")
        floor_loss, queue_base, queue_cap = _KIND_CONSTANTS[id(link.kind)]
        u = self._util.utilization(link_id, direction, ts)
        if self._flap_hook is not None:
            floor = self._flap_hook(link_id, direction, ts)
            if floor is not None:
                # A flapped link direction behaves like a saturated one:
                # heavy loss, bufferbloat queueing, near-zero residual.
                if floor > u:  # max(u, floor)
                    u = floor
        # tuple.__new__ skips the named tuple's Python-level __new__.
        observation = memo[key] = tuple.__new__(LinkObservation, (
            link_id, direction, capacity, u, _residual(capacity, u),
            _loss(u, floor_loss), _queue(u, queue_base, queue_cap),
            burst_loss))
        return observation

    @staticmethod
    def residual_mbps(capacity_mbps: float, utilization: float) -> float:
        """Bandwidth a new elastic flow set can claim on this link."""
        if capacity_mbps <= 0:
            raise ValidationError(f"capacity must be positive: {capacity_mbps}")
        if utilization < 0:
            raise ValidationError(f"utilization must be >= 0: {utilization}")
        return _residual(capacity_mbps, utilization)

    @staticmethod
    def loss_rate(utilization: float, kind: LinkKind) -> float:
        """Packet loss fraction for a link direction at utilization *u*."""
        if utilization < 0:
            raise ValidationError(f"utilization must be >= 0: {utilization}")
        return _loss(utilization, _FLOOR_LOSS[kind])

    @staticmethod
    def queue_delay_ms(utilization: float, kind: LinkKind) -> float:
        """Queueing delay added by this link direction, in ms."""
        if utilization < 0:
            raise ValidationError(f"utilization must be >= 0: {utilization}")
        return _queue(utilization, _QUEUE_BASE_MS[kind], _QUEUE_CAP_MS[kind])
