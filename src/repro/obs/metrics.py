"""The metrics registry: counters, gauges, and log2 histograms.

One process-wide :class:`MetricsRegistry` (owned by :mod:`repro.obs`)
collects operational metrics from every layer of the simulation stack.
Metric values are *derived from* simulated data but never feed back
into it, so instrumentation cannot perturb a campaign.

:class:`Histogram` is the deterministic log2-bucketed histogram; the
engine's :class:`~repro.engine.observers.MetricsObserver` and the
registry share this one bucket shape.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping

from ..errors import ConfigError, ValidationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "snapshot_percentile"]


def snapshot_percentile(hist: Mapping[str, Any], q: float) -> float:
    """Upper-bound q-quantile from a :meth:`Histogram.snapshot` dict.

    Walks the sparse ``buckets`` mapping (keys ``"<N"``) cumulatively
    and returns the upper bound of the bucket containing the target
    rank, capped at the observed ``max``; returns 0.0 for an empty
    histogram.
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"quantile must be in (0, 1], got {q}")
    count = int(hist.get("count", 0))
    if count == 0:
        return 0.0
    bounds = sorted((int(key[1:]), n)
                    for key, n in hist.get("buckets", {}).items())
    target = math.ceil(q * count)
    cumulative = 0
    for bound, n in bounds:
        cumulative += n
        if cumulative >= target:
            return min(float(bound), float(hist.get("max", bound)))
    return float(hist.get("max", 0.0))


class Histogram:
    """A deterministic log2-bucketed histogram of non-negative values.

    Bucket ``i`` holds values in ``[2**(i-1), 2**i)`` (bucket 0 holds
    ``[0, 1)``), capped at ``n_buckets - 1``.  Bounds are fixed, so
    two identical runs produce identical snapshots.
    """

    def __init__(self, n_buckets: int = 40) -> None:
        if n_buckets < 1:
            raise ValidationError(
                f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = n_buckets
        self.counts = [0] * n_buckets
        self.n = 0
        self.total = 0.0
        self.max_value = 0.0

    def add(self, value: float) -> None:
        if value < 0:
            raise ValidationError(
                f"histogram values must be >= 0, got {value}")
        index = 0 if value < 1.0 else int(math.log2(value)) + 1
        self.counts[min(index, self.n_buckets - 1)] += 1
        self.n += 1
        self.total += value
        self.max_value = max(self.max_value, value)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Summary + the non-empty buckets, keyed by upper bound."""
        buckets = {f"<{2 ** index if index else 1}": count
                   for index, count in enumerate(self.counts) if count}
        return {"count": self.n, "mean": self.mean,
                "max": self.max_value, "buckets": buckets}

    def percentile(self, q: float) -> float:
        """Upper-bound q-quantile estimate from the log2 buckets."""
        return snapshot_percentile(self.snapshot(), q)


class Counter:
    """A monotonically increasing count (events, cache hits, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc by {n})")
        self.value += n


class Gauge:
    """A point-in-time value (queue depth, active lanes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class MetricsRegistry:
    """Named counters/gauges/histograms, created on first use.

    A name belongs to exactly one metric type for the registry's
    lifetime; asking for the same name as a different type raises
    :class:`~repro.errors.ConfigError` rather than silently splitting
    the series.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        if not name or not isinstance(name, str):
            raise ValidationError(
                f"metric name must be a non-empty string, got {name!r}")
        owners = {"counter": self._counters, "gauge": self._gauges,
                  "histogram": self._histograms}
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ConfigError(
                    f"metric {name!r} is already registered as a "
                    f"{other_kind}, cannot reuse it as a {kind}")

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._claim(name, "counter")
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(name, "gauge")
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, n_buckets: int = 40) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(name, "histogram")
            metric = self._histograms[name] = Histogram(n_buckets)
        return metric

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One plain, sorted, mutation-safe dict of every metric."""
        return {
            "counters": {name: metric.value for name, metric
                         in sorted(self._counters.items())},
            "gauges": {name: metric.value for name, metric
                       in sorted(self._gauges.items())},
            "histograms": {name: metric.snapshot() for name, metric
                           in sorted(self._histograms.items())},
        }

    # ------------------------------------------------------------------
    # persistence (daemon save/restore)

    def dump_state(self) -> Dict[str, Any]:
        """JSON-serializable raw internals, exact to the float.

        Unlike :meth:`snapshot` (which exposes derived values such as
        the mean), this captures ``total``/``n``/``counts`` directly so
        :meth:`restore_state` reproduces the registry bit for bit.
        """
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {
                name: {"n_buckets": hist.n_buckets,
                       "counts": list(hist.counts), "n": hist.n,
                       "total": hist.total, "max_value": hist.max_value}
                for name, hist in sorted(self._histograms.items())},
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`dump_state` output (per-name overwrite).

        Each restored name gets exactly the dumped value; names not in
        the dump are left alone.  Restored names claim their type as
        usual, so restoring into a registry that already uses a name
        as a different type raises
        :class:`~repro.errors.ConfigError`.
        """
        for name, value in state["counters"].items():
            self.counter(name).value = float(value)
        for name, value in state["gauges"].items():
            self.gauge(name).set(value)
        for name, data in state["histograms"].items():
            n_buckets = int(data["n_buckets"])
            if len(data["counts"]) != n_buckets:
                raise ValidationError(
                    f"histogram {name!r} state is malformed: "
                    f"{len(data['counts'])} counts for {n_buckets} "
                    f"buckets")
            hist = self.histogram(name, n_buckets)
            if hist.n_buckets != n_buckets:
                raise ValidationError(
                    f"histogram {name!r} shape changed: registry has "
                    f"{hist.n_buckets} buckets, state has "
                    f"{data['n_buckets']}")
            hist.counts = [int(c) for c in data["counts"]]
            hist.n = int(data["n"])
            hist.total = float(data["total"])
            hist.max_value = float(data["max_value"])
