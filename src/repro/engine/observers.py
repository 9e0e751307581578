"""Pluggable observers: everything downstream of the event bus.

Observers are the only consumers of campaign telemetry; none of them
is load-bearing for the measurement itself, and all of them rebuild
their state purely from the event stream:

* :class:`DatasetObserver` - reconstructs the campaign dataset
  (measurement rows, completed/failed/retried/lost accounting) from
  events, batching each hour's rows into one ``extend`` flush.
* :class:`MetricsObserver` - per-kind event counters, latency/byte
  histograms, and billing totals, snapshotted as one plain dict.
* :class:`TraceObserver` - a JSON-lines event trace for offline
  inspection (the ``--trace`` CLI flag).

The dataset the :class:`DatasetObserver` mutates is passed in as an
opaque object exposing ``extend(records)`` / ``mark_lost(...)`` plus
the four counters - the engine never imports the core layer.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from typing import (Any, ClassVar, Dict, IO, List, Optional,
                    TextIO, Tuple, Union)

from ..errors import ValidationError
from ..obs.metrics import Histogram, MetricsRegistry
from .events import CampaignEvent, event_payload

__all__ = ["DatasetObserver", "Histogram", "MetricsObserver",
           "Observer", "TraceObserver"]


class Observer:
    """Base observer: dispatches each event to an ``on_<kind>`` method.

    Subclasses implement only the hooks they care about; kind names
    map dash-to-underscore (``test-completed`` -> ``on_test_completed``).
    Event kinds a subclass deliberately does not handle go in its
    ``IGNORED_EVENTS`` tuple - the registry test in
    ``tests/test_engine.py`` requires every engine event kind to be
    either handled or listed there for every observer in the package,
    so growing the taxonomy can never silently bypass an observer.
    """

    #: Event kinds this observer deliberately does not react to.
    IGNORED_EVENTS: ClassVar[Tuple[str, ...]] = ()

    def on_event(self, event: CampaignEvent) -> None:
        handler = getattr(self, "on_" + event.kind.replace("-", "_"),
                          None)
        if handler is not None:
            handler(event)


# ----------------------------------------------------------------------


class DatasetObserver(Observer):
    """Rebuilds a campaign dataset from the event stream.

    Completed measurements are buffered per hour and flushed in one
    batched ``dataset.extend(records)`` call on the next hour boundary
    (and once more at campaign end), which keeps the per-row append
    cost off the hot loop.  Counters are event-derived: one
    ``test-retried`` event is one retried test, one ``test-lost``
    event is one lost slot (and a ``speedtest`` loss is also a failed
    test, matching the historical accounting).
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

    def on_test_completed(self, event: Any) -> None:
        if event.record is None:
            raise ValidationError(
                "TestCompleted event carries no record payload; the "
                "dataset observer cannot rebuild the dataset without it")
        self._pending.append(event.record)

    def on_test_retried(self, event: Any) -> None:
        self.dataset.retried_tests += 1

    def on_test_lost(self, event: Any) -> None:
        if event.reason == "speedtest":
            self.dataset.failed_tests += 1
        self.dataset.mark_lost(event.ts, event.region, event.vm_name,
                               event.server_id, event.reason)

    def _flush(self) -> None:
        if self._pending:
            self.dataset.extend(self._pending)
            self._pending.clear()


# ----------------------------------------------------------------------


# Histogram moved to repro.obs.metrics (the registry and the engine
# share one bucket shape); it stays importable from here.

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

    Accepts a path (opened lazily, closed by :meth:`close`) or any
    object with a ``write`` method (kept open; the caller owns it).
    """

    def __init__(self, target: Union[str, "IO[str]", TextIO]) -> None:
        self._path: Optional[str] = None
        self._handle: Optional[Any] = None
        if hasattr(target, "write"):
            self._handle = target
            self._owns_handle = False
        else:
            self._path = str(target)
            self._owns_handle = True
        self.n_written = 0

    def on_event(self, event: CampaignEvent) -> None:
        if self._handle is None:
            self._handle = open(self._path, "w", encoding="utf-8")
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
