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
``"{kind}/{key}/{ts}"`` stream.  Two hot sites draw many of those
first uniforms at once, through
:meth:`~repro.rng.SeedTree.first_uniforms`, the exact vectorized twin
of ``generator(label).random()``:

* **Test decisions.** :meth:`FaultInjector.prefetch_test_decisions`
  draws a lane-hour's first-attempt ``speedtest-failure`` and
  ``truncated-transfer`` decisions in one call, once the lane is known
  to be runnable; :meth:`FaultInjector.drop_test_decisions` drops what
  no query consumed at the end of the lane-hour.  Retries, at backoff
  timestamps, take single-stream draws.
* **Link flaps.** Flaps are asked about per link observation, so they
  are decided one hour table at a time.  A new table for hour *h*,
  when the table of hour *h - 1* is held, draws *h* in one call for
  every ``(link, direction)`` that table consumed or holds a draw for
  and that was queried within the last day: one batched draw per hour
  on the campaign's hour-sequential walk.  Otherwise the new table
  starts empty, and each key takes one single-stream draw when first
  asked.  A table displaced by a jump to another hour is kept for a
  jump back, so a random-hour pattern such as the Speedchecker study's
  costs about one draw per distinct ``(link, direction, hour)``.

Prefetched draws are private until a query consumes them, so the event
log, :meth:`FaultInjector.summary` and the decision cache are what
per-query draws would give.  The twin relies on numpy's
``SeedSequence`` and PCG64 streams staying as they are, which NEP 19
does not promise across releases;
``tests/test_rng.py::test_first_uniforms_matches_generator`` pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rng import SeedTree
from ..units import HOUR
from .plan import FaultKind, FaultPlan

__all__ = ["FaultEvent", "FaultInjector"]

#: One link-flap hour table: (hour index, consumed floors by
#: (link, direction), prefetched first uniforms not yet consumed,
#: whether it is the first table ever made for its hour).
_FlapHour = Tuple[Optional[int], Dict[Tuple[int, int], Optional[float]],
                  Dict[Tuple[int, int], float], bool]
#: Marks a (link, direction) not yet queried in the current hour table
#: (``None`` is a decided "no flap").
_UNDECIDED = object()
#: Hour tables prefetch only keys queried within this many hours.  The
#: campaign queries its deployed paths every hour, while a key whose
#: path went quiet (a lost VM, a finished scan) stops being drawn a day
#: later; it takes one single-stream draw when it returns.
_FLAP_IDLE_HOURS = 24
#: A lane-hour with fewer test-decision labels than this draws them one
#: stream at a time: one first_uniforms call costs about as much as
#: fifteen generators.
_PREFETCH_MIN_LABELS = 16


def _test_key(vm_name: str, server_id: str) -> str:
    """The decision key of a speed test from *vm_name* to *server_id*."""
    return f"{vm_name}->{server_id}"


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
        # Prefetched first-attempt test decisions of the current
        # lane-hour, by stream label.
        self._test_draws: Dict[str, float] = {}
        # Link-flap hour tables.  Every (link, direction) ever queried,
        # mapped to its decision key "{link}/{direction}" and to the
        # hour it was last queried in; every hour that had a table.
        self._flap_rate = plan.link_flap_per_hour if plan.enabled else 0.0
        self._flap_keys: Dict[Tuple[int, int], str] = {}
        self._flap_seen: Dict[Tuple[int, int], int] = {}
        self._flap_hours: Set[int] = set()
        # The current and previous hour tables (see _FlapHour), and the
        # tables displaced by a jump, by hour.
        self._flap_kept: Dict[int, _FlapHour] = {}
        self._flap_hour: Optional[int] = None
        self._flap_floors: Dict[Tuple[int, int], Optional[float]] = {}
        self._flap_drawn: Dict[Tuple[int, int], float] = {}
        self._flap_fresh = True
        self._flap_prev: _FlapHour = (None, {}, {}, True)
        self._flap_draws_batched = 0
        self._flap_draws_single = 0

    # ------------------------------------------------------------------
    # internals

    @staticmethod
    def _label(kind: FaultKind, key: str, ts: float) -> str:
        """The stream label of the (kind, key, ts) decision."""
        return f"{kind.value}/{key}/{int(ts)}"

    def _stream(self, kind: FaultKind, key: str, ts: float):
        """A fresh generator unique to (kind, key, ts) - order-free."""
        return self._seeds.generator(self._label(kind, key, ts),
                                     allow_reuse=True)

    def _decide(self, kind: FaultKind, key: str, ts: float,
                rate: float) -> bool:
        if not self.plan.enabled or rate <= 0.0:
            return False
        cached = self._cache.get((kind, key, int(ts)))
        if cached is not None:
            return cached
        label = self._label(kind, key, ts)
        draw = self._test_draws.pop(label, None)
        if draw is None:
            draw = self._seeds.generator(label, allow_reuse=True).random()
        return self._record(kind, key, ts, draw < rate)

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

        At most one table per hour is held: the current one, the
        previous one, or one kept for a jump back.  The previous hour's
        table is swapped back in when asked again (a retry whose backoff
        crosses an hour edge).  A table displaced by a jump is kept, so
        a random-hour pattern reads a revisited hour from its table; the
        hour-sequential walk drops it (its decisions stay in the cache).
        """
        current = (self._flap_hour, self._flap_floors, self._flap_drawn,
                   self._flap_fresh)
        prev = self._flap_prev
        if prev[0] == hour_index:
            table = prev
        else:
            if prev[0] is not None and (current[0] is None
                                        or hour_index != current[0] + 1):
                self._flap_kept[prev[0]] = prev
            table = self._flap_kept.pop(hour_index, None)
            if table is None:
                table = self._new_flap_table(hour_index, current)
        (self._flap_hour, self._flap_floors, self._flap_drawn,
         self._flap_fresh) = table
        self._flap_prev = current

    def _new_flap_table(self, hour_index: int,
                        current: _FlapHour) -> _FlapHour:
        """A table for an hour no held table covers.

        When the table of the hour before is held, every key it consumed
        or holds a draw for, and that was queried within
        ``_FLAP_IDLE_HOURS``, is drawn for *hour_index* in one
        :meth:`~repro.rng.SeedTree.first_uniforms` call.  The draws
        follow the keys the hour before answered, not every key seen,
        so a pattern that jumps between hours pays about one draw per
        key-hour it asks.
        """
        fresh = hour_index not in self._flap_hours
        self._flap_hours.add(hour_index)
        source = next((table for table in (current, self._flap_prev)
                       if table[0] == hour_index - 1),
                      self._flap_kept.get(hour_index - 1))
        drawn: Dict[Tuple[int, int], float] = {}
        if source is not None:
            horizon = hour_index - _FLAP_IDLE_HOURS
            seen = self._flap_seen
            pairs = [pair for table in (source[1], source[2])
                     for pair in table if seen[pair] >= horizon]
            hour_ts = hour_index * HOUR
            keys = self._flap_keys
            if not fresh:
                # Keys already decided for this hour read the cache.
                pairs = [pair for pair in pairs
                         if (FaultKind.LINK_FLAP, keys[pair], hour_ts)
                         not in self._cache]
            if pairs:
                # _label() for every key, without a call per key.
                prefix = f"{FaultKind.LINK_FLAP.value}/"
                suffix = f"/{hour_ts}"
                labels = [prefix + keys[pair] + suffix for pair in pairs]
                draws = self._seeds.first_uniforms(labels).tolist()
                self._flap_draws_batched += len(labels)
                drawn = dict(zip(pairs, draws))
        return (hour_index, {}, drawn, fresh)

    def _consume_flap(self, pair: Tuple[int, int],
                      hour_index: int) -> Optional[float]:
        """First query of *pair* in the current hour table."""
        key = self._flap_keys.get(pair)
        if key is None:
            key = self._flap_keys[pair] = f"{pair[0]}/{pair[1]}"
        hour_ts = hour_index * HOUR
        # The first table of an hour holds every decision made for it.
        hit = None if self._flap_fresh else self._cache.get(
            (FaultKind.LINK_FLAP, key, hour_ts))
        if hit is None:
            draw = self._flap_drawn.pop(pair, None)
            if draw is None:
                draw = self._stream(FaultKind.LINK_FLAP, key,
                                    hour_ts).random()
                self._flap_draws_single += 1
            hit = self._record(FaultKind.LINK_FLAP, key, hour_ts,
                               draw < self._flap_rate)
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

    def prefetch_test_decisions(
            self, vm_name: str,
            tests: Sequence[Tuple[str, float]]) -> None:
        """Draw the first-attempt decisions of one lane-hour's tests.

        *tests* lists each slot's ``(server_id, ts)``.  The
        ``speedtest-failure`` and ``truncated-transfer`` first uniforms
        of every slot come from one
        :meth:`~repro.rng.SeedTree.first_uniforms` call and stay private
        until :meth:`speedtest_fails` or :meth:`truncation_fraction`
        consumes them; anything left from an earlier lane-hour is
        dropped first.
        """
        self._test_draws = {}
        plan = self.plan
        if not plan.enabled:
            return
        kinds = [kind for kind, rate in (
            (FaultKind.SPEEDTEST_FAILURE, plan.speedtest_failure_rate),
            (FaultKind.TRUNCATED_TRANSFER, plan.truncated_transfer_rate))
            if rate > 0.0]
        labels = [self._label(kind, _test_key(vm_name, server_id), ts)
                  for server_id, ts in tests for kind in kinds]
        if len(labels) >= _PREFETCH_MIN_LABELS:
            self._test_draws = dict(zip(
                labels, self._seeds.first_uniforms(labels).tolist()))

    def drop_test_decisions(self) -> None:
        """End of a lane-hour: drop the prefetched draws nobody asked for."""
        self._test_draws = {}

    def speedtest_fails(self, vm_name: str, server_id: str,
                        ts: float) -> bool:
        """Does the test from *vm_name* to *server_id* fail outright?"""
        return self._decide(FaultKind.SPEEDTEST_FAILURE,
                            _test_key(vm_name, server_id), ts,
                            self.plan.speedtest_failure_rate)

    def truncation_fraction(self, vm_name: str, server_id: str,
                            ts: float) -> Optional[float]:
        """Fraction of the transfer completed before truncation.

        ``None`` when the transfer runs to completion; otherwise a
        value in ``[0.2, 0.8)``.
        """
        key = _test_key(vm_name, server_id)
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
        if self._flap_rate <= 0.0:
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
        or not), ``flap_draws_single`` single-stream draws for keys no
        table had drawn.
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
