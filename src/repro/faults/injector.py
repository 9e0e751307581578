"""Seed-deterministic fault decisions.

The :class:`FaultInjector` answers one question per injection site:
*does this fault fire for this entity at this simulated time?*  Every
decision is a pure function of ``(root seed, fault kind, entity key,
timestamp)``: the injector derives a dedicated RNG stream per decision
from its :class:`~repro.rng.SeedTree` label space, so

* the same seed always yields the identical fault schedule (which is
  what makes golden-dataset tests possible),
* decisions are independent of *call order* - adding a new consumer or
  skipping a preempted VM's hour never perturbs other decisions, and
* no wall-clock or OS entropy is involved anywhere.

Positive decisions are logged as :class:`FaultEvent` records so tests
and the CLI can report what was injected.

Each yes/no decision is the first ``random()`` of its
``"{kind}/{key}/{ts}"`` stream.  Link flaps are asked about per link
observation, so they are drawn one hour at a time: the first query of a
new hour decides that hour for every ``(link, direction)`` queried in
the last day, through :meth:`~repro.rng.SeedTree.first_uniforms`, the
exact vectorized twin of ``generator(label).random()``.  A key first
seen mid-hour (or back after a day idle) takes a single-stream draw.
Prefetched draws are private until a query consumes them, so the event
log, :meth:`FaultInjector.summary` and the decision cache are what
per-query draws would give.  The twin relies on
numpy's ``SeedSequence`` and PCG64 streams staying as they are, which
NEP 19 does not promise across releases;
``tests/test_rng.py::test_first_uniforms_matches_generator`` pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..rng import SeedTree
from ..units import HOUR
from .plan import FaultKind, FaultPlan

__all__ = ["FaultEvent", "FaultInjector"]

#: One link-flap hour table: (hour index, consumed floors by
#: (link, direction), prefetched first uniforms not yet consumed).
_FlapHour = Tuple[Optional[int], Dict[Tuple[int, int], Optional[float]],
                  Dict[Tuple[int, int], float]]
#: Marks a (link, direction) not yet queried in the current hour table
#: (``None`` is a decided "no flap").
_UNDECIDED = object()
#: Hour tables prefetch only keys queried within this many hours.  The
#: campaign queries its deployed paths every day, while most keys of a
#: selection scan are never queried again; a key that returns after a
#: longer gap takes one single-stream draw and is prefetched again.
_FLAP_IDLE_HOURS = 24


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: what, where, when."""

    kind: FaultKind
    key: str
    ts: float


class FaultInjector:
    """Deterministic per-event fault decisions for one campaign."""

    def __init__(self, plan: FaultPlan, seeds: SeedTree) -> None:
        self.plan = plan
        self._seeds = seeds
        self.events: List[FaultEvent] = []
        self._cache: Dict[Tuple[FaultKind, str, int], bool] = {}
        # Link-flap hour tables.  Every (link, direction) ever queried,
        # mapped to its label prefix "link-flap/{link}/{direction}/" and
        # to the hour it was last queried in.
        self._flap_labels: Dict[Tuple[int, int], str] = {}
        self._flap_seen: Dict[Tuple[int, int], int] = {}
        # The current and previous hour: (hour index, consumed floors,
        # prefetched first uniforms not yet consumed).
        self._flap_hour: Optional[int] = None
        self._flap_floors: Dict[Tuple[int, int], Optional[float]] = {}
        self._flap_drawn: Dict[Tuple[int, int], float] = {}
        self._flap_prev: _FlapHour = (None, {}, {})
        self._flap_draws_batched = 0
        self._flap_draws_single = 0

    # ------------------------------------------------------------------
    # internals

    def _stream(self, kind: FaultKind, key: str, ts: float):
        """A fresh generator unique to (kind, key, ts) - order-free."""
        label = f"{kind.value}/{key}/{int(ts)}"
        return self._seeds.generator(label, allow_reuse=True)

    def _decide(self, kind: FaultKind, key: str, ts: float,
                rate: float) -> bool:
        if not self.plan.enabled or rate <= 0.0:
            return False
        cached = self._cache.get((kind, key, int(ts)))
        if cached is not None:
            return cached
        return self._record(kind, key, ts,
                            self._stream(kind, key, ts).random() < rate)

    def _record(self, kind: FaultKind, key: str, ts: float,
                hit: bool) -> bool:
        """Cache a first-consumed decision and log it if it fired."""
        hit = bool(hit)
        self._cache[(kind, key, int(ts))] = hit
        if hit:
            self.events.append(FaultEvent(kind, key, float(ts)))
        return hit

    def _enter_flap_hour(self, hour_index: int) -> None:
        """Make *hour_index* the current link-flap hour table.

        The previous hour's table is kept, so a retry whose backoff
        crosses an hour edge swaps tables instead of redrawing; any
        other hour is drawn afresh, for every key queried within
        ``_FLAP_IDLE_HOURS``, in one
        :meth:`~repro.rng.SeedTree.first_uniforms` call.
        """
        current = (self._flap_hour, self._flap_floors, self._flap_drawn)
        if self._flap_prev[0] == hour_index:
            _hour, self._flap_floors, self._flap_drawn = self._flap_prev
        else:
            horizon = hour_index - _FLAP_IDLE_HOURS
            pairs = [pair for pair, seen in self._flap_seen.items()
                     if seen >= horizon]
            suffix = str(hour_index * HOUR)
            labels = [self._flap_labels[pair] + suffix for pair in pairs]
            draws = self._seeds.first_uniforms(labels).tolist()
            self._flap_draws_batched += len(labels)
            self._flap_floors = {}
            self._flap_drawn = dict(zip(pairs, draws))
        self._flap_hour = hour_index
        self._flap_prev = current

    def _consume_flap(self, pair: Tuple[int, int],
                      hour_index: int) -> Optional[float]:
        """First query of *pair* in the current hour table."""
        key = f"{pair[0]}/{pair[1]}"
        hour_ts = hour_index * HOUR
        hit = self._cache.get((FaultKind.LINK_FLAP, key, hour_ts))
        if hit is None:
            draw = self._flap_drawn.get(pair)
            if draw is None:
                draw = self._stream(FaultKind.LINK_FLAP, key,
                                    hour_ts).random()
                self._flap_draws_single += 1
            hit = self._record(FaultKind.LINK_FLAP, key, hour_ts,
                               draw < self.plan.link_flap_per_hour)
        if pair not in self._flap_labels:
            self._flap_labels[pair] = f"{FaultKind.LINK_FLAP.value}/{key}/"
        self._flap_seen[pair] = hour_index
        floor = self.plan.link_flap_utilization if hit else None
        self._flap_floors[pair] = floor
        return floor

    # ------------------------------------------------------------------
    # site APIs

    def vm_preempted(self, vm_name: str, hour_ts: float) -> bool:
        """Is this VM preempted during the hour starting at *hour_ts*?"""
        return self._decide(FaultKind.VM_PREEMPTION, vm_name, hour_ts,
                            self.plan.vm_preemption_per_hour)

    def slow_start_hours(self, vm_name: str, ts: float) -> int:
        """Extra warm-up hours a replacement VM misses (0..max)."""
        if not self.plan.enabled or self.plan.slow_start_max_hours == 0:
            return 0
        draw = self._stream(FaultKind.VM_SLOW_START, vm_name, ts)
        hours = int(draw.integers(0, self.plan.slow_start_max_hours + 1))
        if hours:
            self.events.append(
                FaultEvent(FaultKind.VM_SLOW_START, vm_name, float(ts)))
        return hours

    def speedtest_fails(self, vm_name: str, server_id: str,
                        ts: float) -> bool:
        """Does the test from *vm_name* to *server_id* fail outright?"""
        return self._decide(FaultKind.SPEEDTEST_FAILURE,
                            f"{vm_name}->{server_id}", ts,
                            self.plan.speedtest_failure_rate)

    def truncation_fraction(self, vm_name: str, server_id: str,
                            ts: float) -> Optional[float]:
        """Fraction of the transfer completed before truncation.

        ``None`` when the transfer runs to completion; otherwise a
        value in ``[0.2, 0.8)``.
        """
        key = f"{vm_name}->{server_id}"
        if not self._decide(FaultKind.TRUNCATED_TRANSFER, key, ts,
                            self.plan.truncated_transfer_rate):
            return None
        draw = self._stream(FaultKind.TRUNCATED_TRANSFER,
                            f"{key}/fraction", ts)
        return float(draw.uniform(0.2, 0.8))

    def upload_fails(self, bucket_name: str, key: str,
                     attempt: int) -> bool:
        """Does upload attempt *attempt* of *key* fail transiently?

        The attempt number is part of the decision key, so a retried
        upload re-rolls independently and eventually succeeds (or the
        caller exhausts its bounded retry budget).
        """
        return self._decide(FaultKind.UPLOAD_FAILURE,
                            f"{bucket_name}/{key}#{attempt}", 0.0,
                            self.plan.upload_failure_rate)

    def link_flap_utilization(self, link_id: int, direction: int,
                              ts: float) -> Optional[float]:
        """Utilization floor for a flapped link-hour, else ``None``.

        Flaps are hour-granular: every evaluation within the same hour
        sees the same (single) decision.
        """
        if not self.plan.enabled or self.plan.link_flap_per_hour <= 0.0:
            return None
        hour_index = int(ts // HOUR)
        if hour_index != self._flap_hour:
            self._enter_flap_hour(hour_index)
        pair = (link_id, direction)
        floor = self._flap_floors.get(pair, _UNDECIDED)
        if floor is _UNDECIDED:
            return self._consume_flap(pair, hour_index)
        return floor

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff before retry *attempt* (0-based)."""
        return self.plan.backoff_s(attempt)

    # ------------------------------------------------------------------

    def take_draw_counts(self) -> Dict[str, int]:
        """Link-flap draws since the last call, by how they were made.

        ``flap_draws_batched`` counts labels drawn by hour tables (used
        or not), ``flap_draws_single`` single-stream draws for keys
        first seen mid-hour.
        """
        counts = {"flap_draws_batched": self._flap_draws_batched,
                  "flap_draws_single": self._flap_draws_single}
        self._flap_draws_batched = self._flap_draws_single = 0
        return counts

    def summary(self) -> Dict[str, int]:
        """Injected-event counts per fault kind (for reports/CLI)."""
        counts: Dict[str, int] = {kind.value: 0 for kind in FaultKind}
        for event in self.events:
            counts[event.kind.value] += 1
        return counts
