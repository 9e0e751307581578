"""Per-name span totals over the simulation stack.

A span is one timed region of work (a bdrmap run, a speed test, a
campaign), opened as ``with tracer.span("tools.bdrmap.run"):``.  Its
layer is the name's first dotted segment (``tools``).  Nothing is kept
per span: when a span closes, the :class:`Tracer` folds it into its
name's :class:`SpanTotal` row, so a profile stays exact at any run
length in memory proportional to the number of distinct names.

A row holds:

* ``calls`` - every closed span of that name;
* ``total_s`` - wall time summed over the *outermost* calls only, so a
  span nested in another span of the same name is not counted twice;
* ``self_s`` - total minus the time spent in spans opened inside it;
* ``errors`` - spans an exception unwound (it still propagates).

Wall-clock time (``time.perf_counter``) exists only in these rows, for
profiling.  It never flows back into simulation state - lint rule
RPR008 confines the perf-counter family to this package so that stays
true by construction.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from ..units import s_to_ms

__all__ = ["SpanTotal", "Tracer"]


class SpanTotal:
    """Calls, wall times and errors of every span with one name."""

    __slots__ = ("name", "calls", "total_s", "self_s", "errors", "_depth")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.errors = 0
        #: Spans of this name open right now (> 1 when they nest).
        self._depth = 0

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    def payload(self) -> Dict[str, Any]:
        """JSON-serializable row (times in milliseconds)."""
        return {
            "name": self.name,
            "layer": self.layer,
            "calls": self.calls,
            "total_ms": round(s_to_ms(self.total_s), 4),
            "self_ms": round(s_to_ms(self.self_s), 4),
            "errors": self.errors,
        }


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled.

    It satisfies the ``with obs.span(name):`` protocol at near-zero
    cost, which is what keeps instrumented hot paths cheap when
    observability is off.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


#: Shared singleton; every disabled span is this object.
NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that times one span into its name's row."""

    __slots__ = ("_row", "_child_s", "_t0")

    def __init__(self, row: SpanTotal, child_s: List[float]) -> None:
        self._row = row
        self._child_s = child_s
        self._t0 = 0.0

    def __enter__(self) -> None:
        self._child_s.append(0.0)
        self._row._depth += 1
        self._t0 = time.perf_counter()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        elapsed = time.perf_counter() - self._t0
        row = self._row
        child_s = self._child_s
        row._depth -= 1
        row.calls += 1
        row.self_s += elapsed - child_s.pop()
        child_s[-1] += elapsed
        if row._depth == 0:
            row.total_s += elapsed
        if exc_type is not None:
            row.errors += 1
        return False  # never swallow the exception


class Tracer:
    """Folds every closed span into one :class:`SpanTotal` per name."""

    def __init__(self) -> None:
        self._rows: Dict[str, SpanTotal] = {}
        #: Time spent in child spans, one slot per open span plus a
        #: bottom slot for spans opened outside any other.
        self._child_s: List[float] = [0.0]

    def span(self, name: str) -> _ActiveSpan:
        """A context manager timing one span of *name*."""
        row = self._rows.get(name)
        if row is None:
            row = self._rows[name] = SpanTotal(name)
        return _ActiveSpan(row, self._child_s)

    def totals(self) -> List[SpanTotal]:
        """One row per span name seen so far, sorted by name."""
        return [self._rows[name] for name in sorted(self._rows)]
