"""Metric history: live state snapshotted into the time-series store.

The rule engine never inspects the detector or the registry directly;
everything it can judge is first written to a
:class:`~repro.core.tsdb.TimeSeriesDB` on *simulated* time, so rules
query windows instead of instants and the whole alerting plane stays
replayable.  Three tables:

``throughput``
    one row per completed speed test, tagged
    ``(provider, region, tier)``, written a test block at a time.
``vh_events``
    one row per sealed ``V_H`` congestion event, same tags - this is
    the series SLO burn-rate rules meter.
``metrics``
    periodic snapshots of the live :class:`MetricsRegistry`, tagged
    ``(metric, provider, region, tier)``; histograms expand to
    ``<name>.count`` / ``<name>.mean`` / ``<name>.p99`` rows.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from ..core.tsdb import TimeSeriesDB
from ..errors import TSDBError
from ..obs.metrics import snapshot_percentile

__all__ = ["MetricHistory", "TABLES"]

#: ``(table name, tag names, field names)`` for every history table.
TABLES = (
    ("throughput", ("provider", "region", "tier"),
     ("download_mbps", "upload_mbps", "latency_ms")),
    ("vh_events", ("provider", "region", "tier"),
     ("v_h", "throughput_mbps")),
    ("metrics", ("metric", "provider", "region", "tier"), ("value",)),
)

#: Tag value for registry snapshot rows that have no natural scope.
UNSCOPED = "*"


class MetricHistory:
    """Windowed queries over the collector's history tables."""

    def __init__(self, db: Optional[TimeSeriesDB] = None) -> None:
        self.db = db if db is not None else TimeSeriesDB()
        for name, tag_names, field_names in TABLES:
            if name not in self.db:
                self.db.create_table(name, tag_names, field_names)

    # ------------------------------------------------------------------
    # writes

    def record_tests(self, provider: str, block: Any) -> None:
        """A test block's completed tests, in one columnar extend."""
        results = block.results
        self.db.table("throughput").extend_series(
            (provider, block.region, block.tier), results.ts,
            (results.download_mbps, results.upload_mbps,
             results.latency_ms))

    def record_vh_event(self, provider: str, region: str, tier: str,
                        event: Any) -> None:
        """One sealed V_H congestion event."""
        self.db.table("vh_events").append(
            event.ts, (provider, region, tier),
            (event.v_h, event.throughput_mbps))

    def snapshot_registry(self, ts: float,
                          snapshot: Mapping[str, Any],
                          provider: str = UNSCOPED) -> int:
        """Write one registry snapshot as ``metrics`` rows at *ts*.

        Counters and gauges land as one row each; histograms expand to
        count/mean/p99 rows.  Returns the number of rows written.
        """
        table = self.db.table("metrics")
        scope = (provider, UNSCOPED, UNSCOPED)
        n = 0
        for name, value in snapshot.get("counters", {}).items():
            table.append(ts, (name,) + scope, (float(value),))
            n += 1
        for name, value in snapshot.get("gauges", {}).items():
            table.append(ts, (name,) + scope, (float(value),))
            n += 1
        for name, hist in snapshot.get("histograms", {}).items():
            table.append(ts, (name + ".count",) + scope,
                         (float(hist["count"]),))
            table.append(ts, (name + ".mean",) + scope,
                         (float(hist["mean"]),))
            table.append(ts, (name + ".p99",) + scope,
                         (snapshot_percentile(hist, 0.99),))
            n += 3
        return n

    # ------------------------------------------------------------------
    # windowed reads (what rules evaluate against)

    def window_values(self, table_name: str, field: str,
                      start_ts: float, end_ts: float,
                      **tags: str) -> np.ndarray:
        """Field values with ``start_ts <= ts < end_ts``, all series.

        Series are visited in sorted tag order and concatenated, so
        the result is deterministic for a given history.
        """
        table = self.db.table(table_name)
        if field not in table.field_names:
            raise TSDBError(
                f"table {table_name!r} has no field {field!r}")
        chunks = []
        for _key, series in table.select(**tags):
            ts = series["ts"]
            lo = int(np.searchsorted(ts, start_ts, side="left"))
            hi = int(np.searchsorted(ts, end_ts, side="left"))
            if hi > lo:
                chunks.append(series[field][lo:hi])
        if not chunks:
            return np.empty(0, dtype=float)
        return np.concatenate(chunks)

    def window_count(self, table_name: str, start_ts: float,
                     end_ts: float, **tags: str) -> int:
        """Number of rows with ``start_ts <= ts < end_ts``."""
        table = self.db.table(table_name)
        total = 0
        for _key, series in table.select(**tags):
            ts = series["ts"]
            total += int(np.searchsorted(ts, end_ts, side="left")
                         - np.searchsorted(ts, start_ts, side="left"))
        return total

    def last_ts(self, table_name: str, **tags: str) -> Optional[float]:
        """Newest row timestamp in scope, or ``None`` when empty."""
        table = self.db.table(table_name)
        newest: Optional[float] = None
        for _key, series in table.select(**tags):
            ts = series["ts"]
            if len(ts) and (newest is None or float(ts[-1]) > newest):
                newest = float(ts[-1])
        return newest
