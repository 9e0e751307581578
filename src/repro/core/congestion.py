"""Congestion detection from throughput variability (paper section 3.3).

Two normalized metrics drive everything:

* per day: ``V(s, d) = (Tmax(s,d) - Tmin(s,d)) / Tmax(s,d)`` - the
  normalized peak-to-trough difference of pair *s* on day *d*;
* per hour: ``V_H(s, t) = (Tmax(s,d) - T(s,t)) / Tmax(s,d)`` - how far
  the measurement at hour *t* sits below its day's peak.

A day (an *s-day*) is congested when ``V > H``; an hour (an *s-hour*)
when ``V_H > H``.  The threshold ``H`` is chosen with the elbow method
on the s-day curve, constrained to label a reasonable portion (<30 %)
of s-days; the paper lands on ``H = 0.5``.  Days are bucketed in the
*test server's* local time, aligned to local midnight
(:func:`midnight_day_index`), so day boundaries are calendar days
regardless of when the campaign started.

The detector reads one input, download throughput (:data:`METRIC`).
The per-day rules - the :data:`MIN_SAMPLES_PER_DAY` floor, the
all-zero-day skip, and the V and V_H arithmetic - live in one private
routine that :func:`summarize_day`, :func:`hourly_variability` and
:func:`threshold_sweep` all call.  :func:`summarize_day` is shared
verbatim by the batch :func:`detect` pass and the incremental
:class:`repro.core.streaming.StreamingCongestionDetector`, and both
assemble their report through :func:`report_from_days` - that is what
makes the streaming finalize/batch equivalence contract hold
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

import numpy as np

from .. import obs
from ..cloud.tiers import NetworkTier
from ..errors import AnalysisError
from ..units import DAY, HOUR
from .campaign import CampaignDataset

__all__ = [
    "PAPER_THRESHOLD",
    "PairKey",
    "DayRecord",
    "CongestionEvent",
    "CongestionReport",
    "DaySummary",
    "midnight_day_index",
    "summarize_day",
    "report_from_days",
    "hourly_variability",
    "threshold_sweep",
    "choose_threshold_elbow",
    "detect",
]

#: The threshold the paper settles on.
PAPER_THRESHOLD = 0.5

#: Days with fewer hourly samples than this are skipped (partial days
#: at campaign edges would otherwise produce bogus variability).
MIN_SAMPLES_PER_DAY = 8

#: The one throughput the detector reads (a dataset table field).
METRIC = "download"

PairKey = Tuple[str, str, str]  # (region, server_id, tier)


def midnight_day_index(ts: Union[float, np.ndarray],
                       utc_offset_hours: float,
                       start_ts: float) -> Union[int, np.ndarray]:
    """Local-midnight-aligned day index relative to the campaign start.

    Day 0 is the local calendar day containing *start_ts*; boundaries
    fall on the server's local midnight regardless of the campaign's
    start time.  Any ``ts >= start_ts`` therefore maps to a
    non-negative index, including for west-of-UTC servers (the old
    start-anchored bucketing produced ``day_index = -1`` for their
    first local hours and split days at arbitrary local times when a
    campaign did not start at local midnight).
    """
    local = ts + utc_offset_hours * HOUR
    origin_day = int((start_ts + utc_offset_hours * HOUR) // DAY)
    if isinstance(local, np.ndarray):
        return (local // DAY).astype(int) - origin_day
    return int(local // DAY) - origin_day


@dataclass(frozen=True)
class DayRecord:
    """One pair-day: the samples and the derived variability."""

    pair: PairKey
    day_index: int
    n_samples: int
    t_max: float
    t_min: float

    @property
    def variability(self) -> float:
        """V(s, d); zero for a degenerate all-zero day."""
        if self.t_max <= 0:
            return 0.0
        return (self.t_max - self.t_min) / self.t_max


@dataclass(frozen=True)
class CongestionEvent:
    """A congested s-hour: one measurement >H below its day's peak."""

    pair: PairKey
    ts: float
    local_hour: int
    day_index: int
    v_h: float
    throughput_mbps: float
    day_peak_mbps: float


@dataclass(frozen=True)
class DaySummary:
    """Everything :func:`detect` needs from one pair-day bucket."""

    #: ``None`` when the day has fewer than ``MIN_SAMPLES_PER_DAY``
    #: samples.
    record: Optional[DayRecord]
    #: Hours counted toward ``pair_hours`` (zero for skipped or
    #: degenerate all-zero days, matching :func:`hourly_variability`).
    measured_hours: int
    events: Tuple[CongestionEvent, ...]


def _day_variability(pair: PairKey, day: int, values: np.ndarray
                     ) -> Tuple[Optional[DayRecord], Optional[np.ndarray]]:
    """The per-day rules: ``(record, V_H per sample)`` for one bucket.

    *record* is ``None`` for a day below :data:`MIN_SAMPLES_PER_DAY`;
    the V_H array is ``None`` for such a day and for a degenerate
    all-zero day, whose hours count toward nothing.
    """
    if len(values) < MIN_SAMPLES_PER_DAY:
        return None, None
    peak = float(values.max())
    record = DayRecord(pair=pair, day_index=day, n_samples=len(values),
                       t_max=peak, t_min=float(values.min()))
    if peak <= 0:
        return record, None
    return record, (peak - values) / peak


def summarize_day(pair: PairKey, utc_offset_hours: float, day: int,
                  ts: np.ndarray, values: np.ndarray,
                  threshold: float = PAPER_THRESHOLD) -> DaySummary:
    """Record, measured-hour count, and events for one day bucket.

    *ts*/*values* must be the day's samples sorted by timestamp
    (ties in original arrival order).  This is the single shared
    per-day implementation: the batch pass feeds it buckets from the
    dataset table, the streaming detector feeds it sealed in-memory
    buckets, and both get identical floating-point results.
    """
    record, vh = _day_variability(pair, day, values)
    if record is None or vh is None:
        return DaySummary(record=record, measured_hours=0, events=())
    peak = record.t_max
    events = []
    for i in np.nonzero(vh > threshold)[0]:
        local_hour = int(((ts[i] + utc_offset_hours * HOUR) // HOUR) % 24)
        events.append(CongestionEvent(
            pair=pair, ts=float(ts[i]), local_hour=local_hour,
            day_index=day, v_h=float(vh[i]),
            throughput_mbps=float(values[i]), day_peak_mbps=peak))
    return DaySummary(record=record, measured_hours=len(values),
                      events=tuple(events))


@dataclass
class CongestionReport:
    """Full detection output for one metric/threshold."""

    threshold: float
    metric: str
    day_records: List[DayRecord] = field(default_factory=list)
    events: List[CongestionEvent] = field(default_factory=list)
    #: pair -> number of measured hours
    pair_hours: Dict[PairKey, int] = field(default_factory=dict)

    # Lazily built per-pair indices; keyed on the list lengths so a
    # report that grows after a query (the streaming path appends to
    # these lists between snapshots) rebuilds instead of serving stale
    # answers.  Excluded from equality/repr: two reports with the same
    # findings compare equal whether or not either was ever queried.
    _events_by_pair: Optional[Dict[PairKey, List[CongestionEvent]]] = \
        field(default=None, init=False, repr=False, compare=False)
    _event_days_by_pair: Optional[Dict[PairKey, Set[int]]] = \
        field(default=None, init=False, repr=False, compare=False)
    _measured_days_by_pair: Optional[Dict[PairKey, int]] = \
        field(default=None, init=False, repr=False, compare=False)
    _index_key: Tuple[int, int] = \
        field(default=(-1, -1), init=False, repr=False, compare=False)

    # ------------------------------------------------------------------

    @property
    def n_s_days(self) -> int:
        return len(self.day_records)

    @property
    def n_congested_days(self) -> int:
        return sum(1 for d in self.day_records
                   if d.variability > self.threshold)

    @property
    def congested_day_fraction(self) -> float:
        if not self.day_records:
            return 0.0
        return self.n_congested_days / self.n_s_days

    @property
    def n_s_hours(self) -> int:
        return sum(self.pair_hours.values())

    @property
    def congested_hour_fraction(self) -> float:
        total = self.n_s_hours
        if total == 0:
            return 0.0
        return len(self.events) / total

    def _ensure_index(self) -> None:
        """(Re)build the per-pair indices when the lists have grown."""
        key = (len(self.events), len(self.day_records))
        if self._index_key == key:
            return
        events_by: Dict[PairKey, List[CongestionEvent]] = {}
        event_days: Dict[PairKey, Set[int]] = {}
        for event in self.events:
            events_by.setdefault(event.pair, []).append(event)
            event_days.setdefault(event.pair, set()).add(event.day_index)
        measured: Dict[PairKey, int] = {}
        for record in self.day_records:
            measured[record.pair] = measured.get(record.pair, 0) + 1
        self._events_by_pair = events_by
        self._event_days_by_pair = event_days
        self._measured_days_by_pair = measured
        self._index_key = key

    def events_of(self, pair: PairKey) -> List[CongestionEvent]:
        self._ensure_index()
        assert self._events_by_pair is not None
        return list(self._events_by_pair.get(pair, ()))

    def congested_day_count(self, pair: PairKey) -> int:
        """Days of *pair* having at least one congestion event."""
        self._ensure_index()
        assert self._event_days_by_pair is not None
        return len(self._event_days_by_pair.get(pair, ()))

    def measured_day_count(self, pair: PairKey) -> int:
        self._ensure_index()
        assert self._measured_days_by_pair is not None
        return self._measured_days_by_pair.get(pair, 0)

    def is_congested_server(self, pair: PairKey,
                            min_day_fraction: float = 0.10) -> bool:
        """The paper's "congested" label: >10 % of days have events."""
        days = self.measured_day_count(pair)
        if days == 0:
            return False
        return self.congested_day_count(pair) / days > min_day_fraction

    def congested_pairs(self, min_day_fraction: float = 0.10
                        ) -> List[PairKey]:
        pairs = sorted(self.pair_hours)
        return [p for p in pairs
                if self.is_congested_server(p, min_day_fraction)]


def report_from_days(threshold: float,
                     days_by_pair: Iterable[Tuple[PairKey,
                                                  Iterable[DaySummary]]]
                     ) -> CongestionReport:
    """Assemble a report from each pair's day summaries, in day order.

    The one report builder: batch :func:`detect` and the streaming
    detector's ``finalize()`` both go through it.
    """
    report = CongestionReport(threshold=threshold, metric=METRIC)
    for pair, summaries in days_by_pair:
        hours = 0
        for summary in summaries:
            if summary.record is not None:
                report.day_records.append(summary.record)
            hours += summary.measured_hours
            report.events.extend(summary.events)
        report.pair_hours[pair] = hours
    return report


# ----------------------------------------------------------------------
# building blocks


def _pair_day_buckets(dataset: CampaignDataset, pair: PairKey
                      ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """(local day index, ts array, download array) buckets for one pair."""
    region, server_id, tier = pair
    series = dataset.table.series(pair)
    values = series[METRIC]
    offset = dataset.server_meta(server_id).utc_offset_hours
    day_idx = midnight_day_index(series["ts"], offset, dataset.start_ts)
    out = []
    for day in np.unique(day_idx):
        mask = day_idx == day
        out.append((int(day), series["ts"][mask], values[mask]))
    return out


def hourly_variability(dataset: CampaignDataset, pair: PairKey
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """(ts, V_H) arrays for one pair across all its full days."""
    ts_all: List[np.ndarray] = []
    vh_all: List[np.ndarray] = []
    for day, ts, values in _pair_day_buckets(dataset, pair):
        _record, vh = _day_variability(pair, day, values)
        if vh is not None:
            ts_all.append(ts)
            vh_all.append(vh)
    if not ts_all:
        return np.array([]), np.array([])
    ts_cat = np.concatenate(ts_all)
    vh_cat = np.concatenate(vh_all)
    order = np.argsort(ts_cat, kind="stable")
    return ts_cat[order], vh_cat[order]


# ----------------------------------------------------------------------
# threshold selection


def threshold_sweep(dataset: CampaignDataset,
                    thresholds: Sequence[float],
                    region: Optional[str] = None,
                    tier: Optional[NetworkTier] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H values, congested s-day fraction, congested s-hour fraction).

    The curves behind the paper's Fig. 2a / 2b.  One bucket pass per
    pair feeds both curves.
    """
    hs = np.asarray(list(thresholds), dtype=float)
    if hs.size == 0:
        raise AnalysisError("threshold sweep needs at least one H")
    v_days: List[float] = []
    v_hours: List[float] = []
    for pair in dataset.pairs(region=region, tier=tier):
        for day, _ts, values in _pair_day_buckets(dataset, pair):
            record, vh = _day_variability(pair, day, values)
            if record is not None:
                v_days.append(record.variability)
            if vh is not None:
                v_hours.extend(vh.tolist())
    day_arr = np.asarray(v_days)
    hour_arr = np.asarray(v_hours)
    if day_arr.size == 0:
        raise AnalysisError("no full pair-days to sweep over")
    day_frac = np.array([(day_arr > h).mean() for h in hs])
    hour_frac = np.array([(hour_arr > h).mean() for h in hs])
    return hs, day_frac, hour_frac


def choose_threshold_elbow(thresholds: np.ndarray,
                           fractions: np.ndarray,
                           max_label_fraction: float = 0.30) -> float:
    """Elbow of the labeled-fraction curve, capped by a sanity bound.

    The elbow is the point of maximum distance from the chord joining
    the curve's endpoints; if the elbow still labels more than
    *max_label_fraction* of s-days, advance along the curve to the
    first threshold that does not.
    """
    h = np.asarray(thresholds, dtype=float)
    f = np.asarray(fractions, dtype=float)
    if h.size < 3:
        raise AnalysisError("elbow method needs at least 3 thresholds")
    if h.size != f.size:
        raise AnalysisError("thresholds/fractions length mismatch")
    order = np.argsort(h)
    h, f = h[order], f[order]
    # Normalize both axes so distance is scale-free.
    h_n = (h - h[0]) / max(h[-1] - h[0], 1e-12)
    f_n = (f - f[-1]) / max(f[0] - f[-1], 1e-12)
    # Chord from (0, f_n[0]) to (1, f_n[-1]) == (0,1)..(1,0).
    distances = np.abs(h_n + f_n - 1.0) / np.sqrt(2.0)
    elbow_idx = int(np.argmax(distances))
    idx = elbow_idx
    while idx < h.size - 1 and f[idx] > max_label_fraction:
        idx += 1
    return float(h[idx])


# ----------------------------------------------------------------------
# detection


def detect(dataset: CampaignDataset,
           threshold: float = PAPER_THRESHOLD,
           region: Optional[str] = None,
           tier: Optional[NetworkTier] = None) -> CongestionReport:
    """Full detection pass over (a slice of) a dataset.

    Pair-days below :data:`MIN_SAMPLES_PER_DAY` are ignored everywhere
    (records, hours, events); campaigns run with fault injection lower
    effective coverage, and this guard keeps V(s, d) well-defined on
    what remains.

    Each pair's series is bucketed into local days exactly once;
    records, hour counts, and events all come out of that single pass.
    """
    def summaries(pair: PairKey) -> Iterable[DaySummary]:
        offset = dataset.server_meta(pair[1]).utc_offset_hours
        for day, ts, values in _pair_day_buckets(dataset, pair):
            yield summarize_day(pair, offset, day, ts, values, threshold)

    with obs.span("analysis.congestion_detect"):
        report = report_from_days(threshold, (
            (pair, summaries(pair))
            for pair in dataset.pairs(region=region, tier=tier)))
    return report
