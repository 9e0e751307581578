"""repro.obs - process-wide observability for the simulation stack.

One tracer and one metrics registry serve the whole process, switched
on explicitly::

    import repro.obs as obs

    obs.enable()
    try:
        ...  # run a campaign; instrumented layers record into obs
        rows = obs.tracer().totals()
        snap = obs.snapshot()
    finally:
        obs.disable()

Hot paths call the module-level helpers (:func:`span`, :func:`inc`,
:func:`observe`, :func:`set_gauge`), which collapse to near-free no-ops
while obs is disabled - so instrumentation can stay in place
permanently without taxing ordinary runs.  The tracer keeps one
:class:`SpanTotal` row per span name (calls, total and self wall time,
errors), never the spans themselves.

Determinism contract: obs *reads* simulation data (counts, values)
but never feeds anything back, and wall-clock time exists only inside
the span totals.  Lint rule RPR008 enforces both halves - the
``time.perf_counter`` family may only be called under ``repro.obs``,
and ``repro.obs`` may only import ``units``/``errors``/``simclock``
from the package, so it can never reach into simulation state.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import NULL_SPAN, SpanTotal, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTotal",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "inc",
    "observe",
    "registry",
    "set_gauge",
    "snapshot",
    "span",
    "tracer",
]

_tracer: Optional[Tracer] = None
_registry: Optional[MetricsRegistry] = None


def enable() -> None:
    """Turn observability on with a fresh tracer and registry."""
    global _tracer, _registry
    _tracer = Tracer()
    _registry = MetricsRegistry()


def disable() -> None:
    """Turn observability off and drop all recorded state."""
    global _tracer, _registry
    _tracer = None
    _registry = None


def enabled() -> bool:
    return _tracer is not None


def tracer() -> Tracer:
    if _tracer is None:
        raise ConfigError(
            "observability is disabled; call repro.obs.enable() first")
    return _tracer


def registry() -> MetricsRegistry:
    if _registry is None:
        raise ConfigError(
            "observability is disabled; call repro.obs.enable() first")
    return _registry


# ----------------------------------------------------------------------
# hot-path helpers: safe to call unconditionally from any layer


def span(name: str):
    """A span context manager, or the shared no-op when disabled.

    The span's layer is the first dotted segment of *name*.
    """
    if _tracer is None:
        return NULL_SPAN
    return _tracer.span(name)


def inc(name: str, n: float = 1.0) -> None:
    """Bump a counter (no-op while disabled)."""
    if _registry is not None:
        _registry.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record one histogram sample (no-op while disabled)."""
    if _registry is not None:
        _registry.histogram(name).add(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if _registry is not None:
        _registry.gauge(name).set(value)


def snapshot() -> dict:
    """The registry snapshot, or an empty shape when disabled."""
    if _registry is None:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return _registry.snapshot()
