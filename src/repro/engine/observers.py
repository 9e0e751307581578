"""Pluggable observers: everything downstream of the event bus.

Observers are the only consumers of campaign telemetry; none of them
is load-bearing for the measurement itself, and all of them rebuild
their state purely from the event stream:

* :class:`DatasetObserver` - reconstructs the campaign dataset
  (measurement rows, completed/failed/retried/lost accounting) from
  test blocks and losses, appending each hour's blocks to the table as
  columns in one flush.
* :class:`MetricsObserver` - per-kind event counters, latency/byte
  histograms, and billing totals, snapshotted as one plain dict.
* :class:`TraceObserver` - a JSON-lines event trace for offline
  inspection (the ``--trace`` CLI flag).

An observer with an ``on_test_block`` hook takes each lane-hour's
:class:`~repro.engine.events.TestBlock` whole and has no per-test
handler; the others (metrics, trace) get the block's per-test
expansion from the bus, so their streams are per test.

The dataset the :class:`DatasetObserver` mutates is passed in as an
opaque object exposing ``extend_blocks(blocks)`` / ``mark_lost(...)``
plus the failed/retried counters - the engine never imports the core
layer.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from typing import (Any, Callable, ClassVar, Dict, IO, List, Optional,
                    TextIO, Tuple, Union)

from ..obs.metrics import Histogram, MetricsRegistry
from .events import CampaignEvent, event_payload

__all__ = ["DatasetObserver", "MetricsObserver", "Observer",
           "TraceObserver"]


class Observer:
    """Base observer: dispatches each event to an ``on_<kind>`` method.

    Subclasses implement only the hooks they care about; kind names
    map dash-to-underscore (``test-completed`` -> ``on_test_completed``).
    Event kinds a subclass deliberately does not handle go in its
    ``IGNORED_EVENTS`` tuple - the registry test in
    ``tests/test_engine.py`` requires every engine event kind to be
    either handled or listed there for every observer in the package,
    so growing the taxonomy can never silently bypass an observer.  A
    ``test-block`` needs no entry: a subclass with an ``on_test_block``
    hook takes blocks whole (and so has no handler for the
    :data:`~repro.engine.events.PER_TEST_KINDS`), and the bus hands any
    other subclass the block's per-test expansion.

    Hooks are looked up on the class, once per (class, kind), so a
    hook must be a plain method (not set per instance).
    """

    #: Event kinds this observer deliberately does not react to.
    IGNORED_EVENTS: ClassVar[Tuple[str, ...]] = ()
    #: ``event kind -> on_<kind> function`` (``None`` when the class has
    #: no hook), filled on first dispatch; one table per class.
    _handlers: ClassVar[
        Dict[str, Optional[Callable[[Any, CampaignEvent], None]]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {}

    def on_event(self, event: CampaignEvent) -> None:
        try:
            handler = self._handlers[event.kind]
        except KeyError:
            handler = self._handlers[event.kind] = getattr(
                type(self), "on_" + event.kind.replace("-", "_"), None)
        if handler is not None:
            handler(self, event)


# ----------------------------------------------------------------------


class DatasetObserver(Observer):
    """Rebuilds a campaign dataset from test blocks and losses.

    Each hour's blocks are buffered and flushed in one
    ``dataset.extend_blocks(blocks)`` call on the next hour boundary
    (and once more at campaign end), which appends their completed
    tests to the table as columns.  Counters are event-derived: a
    completed test with more than one attempt is one retried test, and
    every lost slot - in a block, or an hour's ``upload`` loss - is one
    lost row (a ``speedtest`` loss is also a failed test, matching the
    historical accounting).
    """

    #: Infra/billing kinds that never touch dataset contents.
    IGNORED_EVENTS: ClassVar[Tuple[str, ...]] = (
        "billing-charged", "upload-attempted", "vm-preempted",
        "vm-replaced")

    def __init__(self, dataset: Any) -> None:
        self.dataset = dataset
        self._pending: List[Any] = []

    def on_hour_started(self, event: CampaignEvent) -> None:
        self._flush()

    def on_campaign_finished(self, event: CampaignEvent) -> None:
        self._flush()

    def on_test_block(self, block: Any) -> None:
        attempts = block.results.attempts
        if attempts:
            self._pending.append(block)
            self.dataset.retried_tests += sum(n > 1 for n in attempts)
        if len(attempts) < len(block.slots.ts):
            for ts, server_id, reason in zip(*block.slots):
                if reason is not None:
                    self._lose(ts, block.region, block.vm_name, server_id,
                               reason)

    def on_test_lost(self, event: Any) -> None:
        self._lose(event.ts, event.region, event.vm_name, event.server_id,
                   event.reason)

    def _lose(self, ts: float, region: str, vm_name: str, server_id: str,
              reason: str) -> None:
        if reason == "speedtest":
            self.dataset.failed_tests += 1
        self.dataset.mark_lost(ts, region, vm_name, server_id, reason)

    def _flush(self) -> None:
        if self._pending:
            self.dataset.extend_blocks(self._pending)
            self._pending.clear()


# ----------------------------------------------------------------------

#: Event fields feeding the latency / byte histograms.
_LATENCY_FIELDS = ("latency_ms",)
_BYTE_FIELDS = ("artefact_bytes", "size_bytes")


class MetricsObserver(Observer):
    """Counters + histograms + billing totals over the event stream.

    When handed a :class:`~repro.obs.metrics.MetricsRegistry`, every
    sample is mirrored into it under ``engine.*`` names, so campaign
    events land in the same process-wide snapshot as the layer
    instrumentation (spans, cache counters, ...).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.counts: Counter = Counter()
        self.lost_by_reason: Counter = Counter()
        self.latency_ms: Dict[str, Histogram] = {}
        self.bytes: Dict[str, Histogram] = {}
        self.usd_by_category: Dict[str, float] = {}
        self.registry = registry

    def on_event(self, event: CampaignEvent) -> None:
        kind = event.kind
        registry = self.registry
        self.counts[kind] += 1
        if registry is not None:
            registry.counter(f"engine.events.{kind}").inc()
        for name in _LATENCY_FIELDS:
            value = getattr(event, name, None)
            if value is not None:
                self._hist(self.latency_ms, kind).add(float(value))
                if registry is not None:
                    registry.histogram(
                        f"engine.latency_ms.{kind}").add(float(value))
        for name in _BYTE_FIELDS:
            value = getattr(event, name, None)
            if value is not None:
                self._hist(self.bytes, kind).add(float(value))
                if registry is not None:
                    registry.histogram(
                        f"engine.bytes.{kind}").add(float(value))
        if kind == "test-lost":
            self.lost_by_reason[event.reason] += 1
            if registry is not None:
                registry.counter(
                    f"engine.lost.{event.reason}").inc()
        elif kind == "billing-charged":
            self.usd_by_category[event.category] = (
                self.usd_by_category.get(event.category, 0.0)
                + event.amount_usd)
            if registry is not None:
                registry.counter(
                    f"engine.usd.{event.category}").inc(event.amount_usd)

    @staticmethod
    def _hist(table: Dict[str, Histogram], kind: str) -> Histogram:
        hist = table.get(kind)
        if hist is None:
            hist = table[kind] = Histogram()
        return hist

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def snapshot(self) -> Dict[str, Any]:
        """One plain, sorted dict with everything this observer saw.

        The result is a deep copy: mutating it (or anything nested in
        it) can never corrupt the live counters or histograms.
        """
        return copy.deepcopy({
            "events": dict(sorted(self.counts.items())),
            "lost_by_reason": dict(sorted(self.lost_by_reason.items())),
            "latency_ms": {kind: hist.snapshot()
                           for kind, hist in sorted(self.latency_ms.items())},
            "bytes": {kind: hist.snapshot()
                      for kind, hist in sorted(self.bytes.items())},
            "usd_by_category": dict(sorted(self.usd_by_category.items())),
        })


# ----------------------------------------------------------------------


class TraceObserver(Observer):
    """Writes every event as one JSON line (opaque payloads dropped).

    Accepts a path (opened here, so an unwritable path fails before any
    event; closed by :meth:`close`) or any object with a ``write``
    method (kept open; the caller owns it).
    """

    def __init__(self, target: Union[str, "IO[str]", TextIO]) -> None:
        self._handle: Optional[Any]
        if hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
        else:
            self._handle = open(str(target), "w", encoding="utf-8")
            self._owns_handle = True
        self.n_written = 0

    def on_event(self, event: CampaignEvent) -> None:
        self._handle.write(json.dumps(event_payload(event),
                                      sort_keys=True) + "\n")
        self.n_written += 1

    def close(self) -> None:
        """Flush and (when we opened the file) close the trace."""
        if self._handle is None:
            return
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceObserver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
