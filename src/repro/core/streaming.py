"""Incremental congestion detection, one hour at a time.

The batch :func:`repro.core.congestion.detect` re-scans the whole
dataset after the campaign ends.  :class:`StreamingCongestionDetector`
consumes the same measurements *as events happen* and keeps per-pair
day buckets, ``V(s, d)`` and ``V_H`` events up to date in O(new
observations) per hour:

* every completed test appends one ``(ts, value)`` sample to its
  pair's *open* local-day bucket (:meth:`~StreamingCongestionDetector.observe`,
  once per row of each lane-hour's test block);
* each hour boundary advances a watermark; any open day whose local
  midnight has passed is *sealed* (there is no lateness grace) - the
  bucket is sorted once and handed to the same
  :func:`~repro.core.congestion.summarize_day` the batch pass uses,
  yielding the day's :class:`~repro.core.congestion.DayRecord`,
  congestion events, and measured-hour count.  The detector keeps the
  earliest open day's due time, so an hour in which nothing is due
  returns without visiting any bucket;
* sealed day summaries are tiny aggregates, and the detector hands out
  only the pair-days sealed since the last hand-out
  (:meth:`~StreamingCongestionDetector.take_sealed`), so the alerts
  collector exports new V_H events without touching raw samples or
  older seals.

Together with the incremental sorted views of :mod:`repro.core.tsdb`
that the collector's rules read, every part of the always-on plane's
hourly step costs O(what arrived that hour), not O(history).

The detector runs the paper's one setting: download throughput,
``H = PAPER_THRESHOLD``, days with at least ``MIN_SAMPLES_PER_DAY``
samples.

**Equivalence contract**: :meth:`finalize` returns a
:class:`~repro.core.congestion.CongestionReport` *equal* (same events,
day records, and pair_hours - identical floats) to batch ``detect()``
on the dataset built from the same event stream, as long as no
observation arrived after its day was sealed (``late_dropped`` counts
the ones that did).  Both paths share one per-day implementation -
:func:`~repro.core.congestion.midnight_day_index`,
:func:`~repro.core.congestion.summarize_day` and
:func:`~repro.core.congestion.report_from_days` - which is what makes
the contract bit-for-bit rather than merely approximate.

:class:`StreamingDetectorObserver` adapts the detector - or the alerts
collector, which has the same ``advance``/``observe_block`` pair - to
the engine's :class:`~repro.engine.bus.EventBus`; it takes each
lane-hour's :class:`~repro.engine.events.TestBlock` whole and works
identically with the scalar and the vectorized batch path, which emit
the same blocks.
"""

from __future__ import annotations

from typing import (Any, Callable, ClassVar, Dict, Iterable, List,
                    Protocol, Tuple)

import numpy as np

from ..engine.observers import Observer
from ..errors import ConfigError, ValidationError
from ..units import DAY, HOUR
from .campaign import CampaignDataset
from .congestion import (METRIC, MIN_SAMPLES_PER_DAY, PAPER_THRESHOLD,
                         CongestionEvent, CongestionReport, DayRecord,
                         DaySummary, PairKey, midnight_day_index,
                         report_from_days, summarize_day)

__all__ = [
    "StreamingCongestionDetector",
    "StreamingDetectorObserver",
    "catalog_offsets",
    "dataset_offsets",
    "iter_hourly",
    "stream_dataset",
]

#: The detector's fixed setting, as written in every state file.  A
#: state holding any other value is refused, not silently reinterpreted.
_FIXED_STATE = {"threshold": PAPER_THRESHOLD, "metric": METRIC,
                "min_samples": MIN_SAMPLES_PER_DAY, "lateness_s": 0.0}


def dataset_offsets(dataset: CampaignDataset) -> Callable[[str], float]:
    """Server UTC-offset resolver backed by a dataset's metadata."""
    return lambda server_id: dataset.server_meta(server_id).utc_offset_hours


def catalog_offsets(catalog: Any, topology: Any) -> Callable[[str], float]:
    """Server UTC-offset resolver backed by catalog + topology.

    This is what a live campaign uses: the observer is built *before*
    the runner creates the dataset, so offsets come from the same
    city table :meth:`CampaignRunner.register_metadata` reads.
    """
    def offset_of(server_id: str) -> float:
        server = catalog.get(server_id)
        return topology.cities[server.city_key].utc_offset_hours
    return offset_of


class _OpenDay:
    """One still-mutable pair-day: samples in arrival order."""

    __slots__ = ("due_ts", "ts", "values")

    def __init__(self, due_ts: float) -> None:
        self.due_ts = due_ts
        self.ts: List[float] = []
        self.values: List[float] = []


class StreamingCongestionDetector:
    """V_H detection updated in O(new samples)/hour.

    *offset_of* maps a server id to its UTC offset in hours (see
    :func:`dataset_offsets` / :func:`catalog_offsets`).  A day seals
    when the watermark reaches its local midnight; observations for
    already-sealed days are dropped and counted in :attr:`late_dropped`.
    """

    def __init__(self, start_ts: float,
                 offset_of: Callable[[str], float]) -> None:
        self.start_ts = float(start_ts)
        self.watermark = float(start_ts)
        self._offset_of = offset_of
        self._offsets: Dict[str, float] = {}
        self._open: Dict[PairKey, Dict[int, _OpenDay]] = {}
        self._sealed: Dict[PairKey, Dict[int, DaySummary]] = {}
        #: Total observations accepted (late ones excluded).
        self.observed = 0
        #: Observations that arrived after their day was sealed.
        self.late_dropped = 0
        #: Sealed pair-days so far.
        self.sealed_days = 0
        #: Earliest ``due_ts`` of any open day (inf when none is open).
        self._next_due = float("inf")
        #: ``(pair, day)`` keys sealed since the last :meth:`take_sealed`.
        self._fresh: List[Tuple[PairKey, int]] = []

    # ------------------------------------------------------------------
    # ingestion

    def _offset(self, server_id: str) -> float:
        offset = self._offsets.get(server_id)
        if offset is None:
            offset = self._offsets[server_id] = float(
                self._offset_of(server_id))
        return offset

    def _due_ts(self, day: int, offset: float) -> float:
        """UTC instant at which local day *day* can be sealed."""
        origin_day = int((self.start_ts + offset * HOUR) // DAY)
        return (origin_day + day + 1) * DAY - offset * HOUR

    def observe(self, pair: PairKey, ts: float, value: float) -> bool:
        """Ingest one measurement; False when it was too late to keep."""
        offset = self._offset(pair[1])
        day = midnight_day_index(ts, offset, self.start_ts)
        sealed = self._sealed.get(pair)
        if sealed is not None and day in sealed:
            self.late_dropped += 1
            return False
        days = self._open.setdefault(pair, {})
        bucket = days.get(day)
        if bucket is None:
            bucket = days[day] = _OpenDay(self._due_ts(day, offset))
            if bucket.due_ts < self._next_due:
                self._next_due = bucket.due_ts
        bucket.ts.append(float(ts))
        bucket.values.append(float(value))
        self.observed += 1
        return True

    def observe_block(self, block: Any) -> int:
        """Ingest a test block's completed tests, one :meth:`observe`
        per row; returns how many arrived too late to keep."""
        region, tier, results = block.region, block.tier, block.results
        late = 0
        for server_id, ts, value in zip(results.server_ids, results.ts,
                                        results.download_mbps):
            if not self.observe((region, server_id, tier), ts, value):
                late += 1
        return late

    def advance(self, ts: float) -> int:
        """Move the watermark forward, sealing every due open day.

        Returns the number of pair-days sealed.  Moving backwards is a
        no-op: the watermark never decreases.
        """
        if ts > self.watermark:
            self.watermark = float(ts)
        return self._seal_due(self.watermark)

    def _seal_due(self, watermark: float) -> int:
        if watermark < self._next_due:
            return 0
        n = 0
        next_due = float("inf")
        for pair, days in self._open.items():
            due = [day for day, bucket in days.items()
                   if bucket.due_ts <= watermark]
            for day in sorted(due):
                self._seal(pair, day, days.pop(day))
                n += 1
            for bucket in days.values():
                if bucket.due_ts < next_due:
                    next_due = bucket.due_ts
        self._next_due = next_due
        return n

    def _seal(self, pair: PairKey, day: int, bucket: _OpenDay) -> None:
        ts = np.asarray(bucket.ts, dtype=float)
        values = np.asarray(bucket.values, dtype=float)
        # Stable ts sort reproduces the dataset table's within-day
        # ordering (ties keep arrival order), so summarize_day sees
        # exactly the bucket the batch pass would build.
        order = np.argsort(ts, kind="stable")
        summary = summarize_day(pair, self._offset(pair[1]), day,
                                ts[order], values[order])
        self._sealed.setdefault(pair, {})[day] = summary
        self._fresh.append((pair, day))
        self.sealed_days += 1

    def finalize(self) -> CongestionReport:
        """Seal everything and return the batch-equivalent report."""
        for pair in list(self._open):
            days = self._open.pop(pair)
            for day in sorted(days):
                self._seal(pair, day, days[day])
        self._next_due = float("inf")
        return report_from_days(PAPER_THRESHOLD, (
            (pair, [days[day] for day in sorted(days)])
            for pair, days in sorted(self._sealed.items())))

    def sealed_items(self) -> Iterable[Tuple[PairKey, int, DaySummary]]:
        """Sealed day summaries in deterministic (pair, day) order."""
        for pair in sorted(self._sealed):
            days = self._sealed[pair]
            for day in sorted(days):
                yield pair, day, days[day]

    def take_sealed(self) -> List[Tuple[PairKey, int, DaySummary]]:
        """Pair-days sealed since the last call, in (pair, day) order.

        A sealed pair-day is immutable, so a consumer (the alerts
        collector's event export) that takes every hand-out sees each
        one exactly once, in the order a filtered :meth:`sealed_items`
        walk would give, at a cost of O(new seals).  A restored
        detector (:meth:`load_state`) counts its sealed days as
        already taken.
        """
        fresh, self._fresh = sorted(self._fresh), []
        return [(pair, day, self._sealed[pair][day])
                for pair, day in fresh]

    # ------------------------------------------------------------------
    # persistence (daemon save/restore)

    def state_dict(self) -> Dict[str, Any]:
        """Full JSON-serializable state, exact to the float.

        Everything except the ``offset_of`` callable is captured -
        including cached offsets, open buckets in arrival order, and
        sealed summaries - so :meth:`load_state` resumes a detector
        whose every future output is bit-identical to one that never
        stopped.
        """
        return {
            "start_ts": self.start_ts,
            **_FIXED_STATE,
            "watermark": self.watermark,
            "observed": self.observed,
            "late_dropped": self.late_dropped,
            "sealed_days": self.sealed_days,
            "offsets": {sid: self._offsets[sid]
                        for sid in sorted(self._offsets)},
            "open": [
                {"pair": list(pair), "day": day, "due_ts": bucket.due_ts,
                 "ts": list(bucket.ts), "values": list(bucket.values)}
                for pair in sorted(self._open)
                for day, bucket in sorted(self._open[pair].items())],
            "sealed": [
                {"pair": list(pair), "day": day,
                 "summary": _summary_to_dict(summary)}
                for pair, day, summary in self.sealed_items()],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output, replacing current state.

        The ``offset_of`` resolver passed at construction is kept (it
        is the one thing the snapshot cannot carry), but the cached
        offsets are restored, so a resumed detector keeps bucketing
        with exactly the offsets it had already resolved.  A state
        whose ``threshold``/``metric``/``min_samples``/``lateness_s``
        differ from the fixed setting raises
        :class:`~repro.errors.ConfigError`.
        """
        for key, want in _FIXED_STATE.items():
            if state[key] != want:
                raise ConfigError(
                    f"detector state has {key}={state[key]!r}; this "
                    f"detector runs only {key}={want!r}")
        self.start_ts = float(state["start_ts"])
        self.watermark = float(state["watermark"])
        self.observed = int(state["observed"])
        self.late_dropped = int(state["late_dropped"])
        self.sealed_days = int(state["sealed_days"])
        self._offsets = {sid: float(offset)
                         for sid, offset in state["offsets"].items()}
        self._open = {}
        self._next_due = float("inf")
        for entry in state["open"]:
            pair = tuple(entry["pair"])
            bucket = _OpenDay(float(entry["due_ts"]))
            bucket.ts = [float(ts) for ts in entry["ts"]]
            bucket.values = [float(v) for v in entry["values"]]
            self._open.setdefault(pair, {})[int(entry["day"])] = bucket
            self._next_due = min(self._next_due, bucket.due_ts)
        self._sealed = {}
        self._fresh = []
        for entry in state["sealed"]:
            pair = tuple(entry["pair"])
            self._sealed.setdefault(pair, {})[int(entry["day"])] = (
                _summary_from_dict(entry["summary"]))


def _summary_to_dict(summary: DaySummary) -> Dict[str, Any]:
    record = summary.record
    return {
        "record": None if record is None else {
            "pair": list(record.pair), "day_index": record.day_index,
            "n_samples": record.n_samples, "t_max": record.t_max,
            "t_min": record.t_min},
        "measured_hours": summary.measured_hours,
        "events": [
            {"ts": e.ts, "local_hour": e.local_hour,
             "day_index": e.day_index, "v_h": e.v_h,
             "throughput_mbps": e.throughput_mbps,
             "day_peak_mbps": e.day_peak_mbps}
            for e in summary.events],
    }


def _summary_from_dict(data: Dict[str, Any]) -> DaySummary:
    pair = None
    record = data["record"]
    if record is not None:
        pair = tuple(record["pair"])
        record = DayRecord(pair=pair, day_index=int(record["day_index"]),
                           n_samples=int(record["n_samples"]),
                           t_max=float(record["t_max"]),
                           t_min=float(record["t_min"]))
    events = []
    for e in data["events"]:
        if pair is None:
            raise ValidationError(
                "sealed-day snapshot has events but no day record")
        events.append(CongestionEvent(
            pair=pair, ts=float(e["ts"]), local_hour=int(e["local_hour"]),
            day_index=int(e["day_index"]), v_h=float(e["v_h"]),
            throughput_mbps=float(e["throughput_mbps"]),
            day_peak_mbps=float(e["day_peak_mbps"])))
    return DaySummary(record=record, measured_hours=int(
        data["measured_hours"]), events=tuple(events))


# ----------------------------------------------------------------------
# engine wiring


class _Sink(Protocol):
    """What the observer feeds: a detector or the alerts collector."""

    def advance(self, ts: float) -> Any: ...

    def observe_block(self, block: Any) -> Any: ...


class StreamingDetectorObserver(Observer):
    """Feeds a detector (or the alerts collector) from the event bus.

    Subscribes like any campaign observer; hour boundaries drive the
    sink's watermark, each lane-hour's test block feeds it, and
    campaign end advances the watermark to the final boundary (sealing
    every complete day) without finalizing - the caller decides when to
    :meth:`~StreamingCongestionDetector.finalize`.
    """

    #: Kinds with no bearing on congestion or alerting state.
    IGNORED_EVENTS: ClassVar[Tuple[str, ...]] = (
        "billing-charged", "test-lost", "upload-attempted",
        "vm-preempted", "vm-replaced")

    def __init__(self, sink: _Sink) -> None:
        self.sink = sink

    def on_hour_started(self, event: Any) -> None:
        self.sink.advance(event.ts)

    def on_test_block(self, block: Any) -> None:
        self.sink.observe_block(block)

    def on_campaign_finished(self, event: Any) -> None:
        self.sink.advance(event.ts)


# ----------------------------------------------------------------------
# replay


def stream_dataset(dataset: CampaignDataset
                   ) -> Tuple[StreamingCongestionDetector,
                              CongestionReport]:
    """Replay a finished dataset hour by hour through a new detector.

    Builds a detector over the dataset's own metadata, feeds every
    measurement in hour order - each pair's samples in series order,
    so tie-breaking matches the table - and finalizes.  Returns
    ``(detector, report)``; the report equals batch ``detect()`` on
    the same dataset.
    """
    detector = StreamingCongestionDetector(dataset.start_ts,
                                           dataset_offsets(dataset))
    rows: List[Tuple[float, PairKey, float]] = []
    for pair in dataset.pairs():
        series = dataset.table.series(pair)
        for ts, value in zip(series["ts"], series[METRIC]):
            rows.append((float(ts), pair, float(value)))
    rows.sort(key=lambda row: row[0])  # stable: per-pair order survives
    feed = iter_hourly(rows, dataset.start_ts, dataset.end_ts)
    for hour_ts, hour_rows in feed:
        detector.advance(hour_ts)
        for ts, pair, value in hour_rows:
            detector.observe(pair, ts, value)
    return detector, detector.finalize()


def iter_hourly(rows: List[Tuple[float, PairKey, float]],
                start_ts: float, end_ts: float
                ) -> Iterable[Tuple[float, List[Tuple[float, PairKey,
                                                      float]]]]:
    """Group ts-sorted rows into hour batches, one per campaign hour.

    Yields ``(hour_start_ts, rows_in_hour)`` for every hour in
    ``[start_ts, end_ts)`` (plus a trailing batch when measurements
    run past the end), mirroring how the engine frames hours.
    """
    n_hours = max(int((end_ts - start_ts) // HOUR), 0)
    index = 0
    for hour in range(n_hours):
        hour_ts = start_ts + hour * HOUR
        upper = hour_ts + HOUR
        batch: List[Tuple[float, PairKey, float]] = []
        while index < len(rows) and rows[index][0] < upper:
            batch.append(rows[index])
            index += 1
        yield hour_ts, batch
    if index < len(rows):
        yield start_ts + n_hours * HOUR, rows[index:]
