"""The rule evaluator: a deterministic firing/resolved state machine.

Rules are evaluated on simulated time whenever the collector's
watermark crosses an evaluation boundary.  Each rule keeps a breach
streak; once the streak reaches ``for_intervals`` the rule transitions
to *firing* and appends a :class:`Notification`, and the first clean
evaluation afterwards transitions it back to *resolved* with a second
notification.  The log is append-only and every input is simulated
data, so the same seed + rules always produce the same bytes.

Evaluation dispatch mirrors :class:`~repro.engine.observers.Observer`:
rule kind ``"burn-rate"`` is handled by ``_eval_burn_rate`` and so on;
``tests/test_alerts.py::test_rule_kinds_registry_mirrors_evaluator``
keeps the taxonomy, the :data:`~repro.alerts.rules.RULE_KINDS`
registry, and these handler methods in sync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..units import HOUR
from .history import TABLES, MetricHistory
from .rules import AlertRule

__all__ = ["Notification", "RuleEvaluator"]


@dataclass(frozen=True)
class Notification:
    """One append-only log entry: a rule fired or resolved."""

    ts: float
    rule: str
    kind: str
    severity: str
    #: ``"firing"`` or ``"resolved"``.
    status: str
    #: The evaluated value that crossed (or cleared) the condition.
    value: float
    detail: str

    def payload(self) -> Dict[str, Any]:
        """Plain dict for the JSON-lines export."""
        return {"ts": self.ts, "rule": self.rule, "kind": self.kind,
                "severity": self.severity, "status": self.status,
                "value": self.value, "detail": self.detail}


class _RuleState:
    """Mutable per-rule evaluation state."""

    __slots__ = ("streak", "firing", "since_ts")

    def __init__(self) -> None:
        self.streak = 0
        self.firing = False
        self.since_ts: Optional[float] = None


class RuleEvaluator:
    """Evaluates a fixed rule set against a :class:`MetricHistory`.

    *start_ts* anchors absence rules before any data has arrived.  The
    optional *registry* gets mirror metrics (``alerts.evaluations``,
    ``alerts.fired``, ``alerts.resolved``, ``alerts.active``) so the
    alerting plane is observable through the ordinary obs exporters.
    """

    def __init__(self, rules: Sequence[AlertRule],
                 history: MetricHistory, start_ts: float,
                 registry: Optional[Any] = None) -> None:
        names = [rule.name for rule in rules]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(f"duplicate rule names: {dupes}")
        schema = {name: field_names for name, _tags, field_names
                  in TABLES}
        for rule in rules:
            table = getattr(rule, "table", None)
            if table is None:
                continue
            if table not in schema:
                raise ConfigError(
                    f"rule {rule.name!r}: unknown history table "
                    f"{table!r}; known: {sorted(schema)}")
            field = getattr(rule, "field", None)
            if field is not None and field not in schema[table]:
                raise ConfigError(
                    f"rule {rule.name!r}: table {table!r} has no "
                    f"field {field!r}; known: {list(schema[table])}")
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self.history = history
        self.start_ts = float(start_ts)
        self.registry = registry
        self.evaluations = 0
        self.notifications: List[Notification] = []
        self._states = {rule.name: _RuleState() for rule in self.rules}

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, now_ts: float) -> List[Notification]:
        """Evaluate every rule at *now_ts*; returns new notifications."""
        self.evaluations += 1
        new: List[Notification] = []
        for rule in self.rules:
            handler = getattr(
                self, "_eval_" + rule.kind.replace("-", "_"))
            breached, value, detail = handler(rule, now_ts)
            state = self._states[rule.name]
            if breached:
                state.streak += 1
                if (not state.firing
                        and state.streak >= rule.for_intervals):
                    state.firing = True
                    state.since_ts = now_ts
                    new.append(self._notify(now_ts, rule, "firing",
                                            value, detail))
            else:
                state.streak = 0
                if state.firing:
                    state.firing = False
                    state.since_ts = None
                    new.append(self._notify(now_ts, rule, "resolved",
                                            value, detail))
        self.notifications.extend(new)
        if self.registry is not None:
            self.registry.counter("alerts.evaluations").inc()
            for notification in new:
                if notification.status == "firing":
                    self.registry.counter("alerts.fired").inc()
                else:
                    self.registry.counter("alerts.resolved").inc()
            self.registry.gauge("alerts.active").set(self.active_count)
        return new

    def _notify(self, ts: float, rule: AlertRule, status: str,
                value: float, detail: str) -> Notification:
        return Notification(ts=ts, rule=rule.name, kind=rule.kind,
                            severity=rule.severity, status=status,
                            value=value, detail=detail)

    # -- one handler per rule kind (checked by the registry test) ------

    def _eval_threshold(self, rule: AlertRule, now_ts: float
                        ) -> Tuple[bool, float, str]:
        values = self.history.window_values(
            rule.table, rule.field,
            now_ts - rule.window_hours * HOUR, now_ts, **rule.scope())
        if values.size == 0:
            return False, 0.0, "no data in window"
        value = _aggregate(values, rule.agg)
        breached = _compare(value, rule.op, rule.value)
        detail = (f"{rule.agg}({rule.table}.{rule.field})"
                  f"={value:.3f} {rule.op} {rule.value:g} "
                  f"over {rule.window_hours:g}h")
        return breached, value, detail

    def _eval_absence(self, rule: AlertRule, now_ts: float
                      ) -> Tuple[bool, float, str]:
        newest = self.history.last_ts(rule.table, **rule.scope())
        anchor = self.start_ts if newest is None else newest
        stale_hours = (now_ts - anchor) / HOUR
        breached = stale_hours > rule.stale_hours
        detail = (f"{rule.table} last seen {stale_hours:.2f}h ago "
                  f"(limit {rule.stale_hours:g}h)")
        return breached, stale_hours, detail

    def _eval_burn_rate(self, rule: AlertRule, now_ts: float
                        ) -> Tuple[bool, float, str]:
        n = self.history.window_count(
            rule.table, now_ts - rule.window_hours * HOUR, now_ts,
            **rule.scope())
        observed_rate = n / rule.window_hours
        burn = observed_rate / rule.budget_rate()
        breached = burn > rule.max_burn
        detail = (f"{n} {rule.table} rows in {rule.window_hours:g}h; "
                  f"burn {burn:.2f}x of {rule.budget:g}/"
                  f"{rule.period_days:g}d budget "
                  f"(limit {rule.max_burn:g}x)")
        return breached, burn, detail

    # ------------------------------------------------------------------
    # introspection

    @property
    def active_count(self) -> int:
        return sum(1 for state in self._states.values() if state.firing)

    def firing(self) -> List[Tuple[AlertRule, float]]:
        """Currently-firing rules with their firing timestamps."""
        out = []
        for rule in self.rules:
            state = self._states[rule.name]
            if state.firing:
                out.append((rule, state.since_ts))
        return out

    # ------------------------------------------------------------------
    # persistence (daemon save/restore)

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable evaluation state + notification log.

        The rules themselves are *not* serialized - a restored
        evaluator is constructed from the same rules file, and
        restoring against a different rule set raises.
        """
        return {
            "evaluations": self.evaluations,
            "states": {
                name: {"streak": state.streak,
                       "firing": state.firing,
                       "since_ts": state.since_ts}
                for name, state in sorted(self._states.items())},
            "notifications": [n.payload() for n in self.notifications],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto this rule set."""
        saved = set(state["states"])
        current = set(self._states)
        if saved != current:
            raise ConfigError(
                "cannot restore evaluator state: rule set changed "
                f"(saved {sorted(saved)}, current {sorted(current)})")
        self.evaluations = int(state["evaluations"])
        for name, data in state["states"].items():
            rule_state = self._states[name]
            rule_state.streak = int(data["streak"])
            rule_state.firing = bool(data["firing"])
            rule_state.since_ts = (
                None if data["since_ts"] is None
                else float(data["since_ts"]))
        self.notifications = [
            Notification(ts=float(n["ts"]), rule=n["rule"],
                         kind=n["kind"], severity=n["severity"],
                         status=n["status"], value=float(n["value"]),
                         detail=n["detail"])
            for n in state["notifications"]]


def _aggregate(values: np.ndarray, agg: str) -> float:
    if agg == "count":
        return float(values.size)
    if agg == "mean":
        return float(values.mean())
    if agg == "min":
        return float(values.min())
    if agg == "max":
        return float(values.max())
    return _percentile(values, {"p50": 0.50, "p90": 0.90, "p99": 0.99}[agg])


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, 100 * q)`` from two order statistics.

    One ``np.partition`` instead of numpy's general quantile machinery,
    with numpy's own "linear" arithmetic so the result is bit for bit
    the same: the virtual index ``(n - 1) * q``, both neighbours clamped
    to the last element at the top (where numpy's weight becomes
    ``virtual + 1``), and its ``_lerp``, which interpolates down from the
    upper neighbour when the weight is at least one half.  A NaN
    anywhere gives NaN, as in numpy.
    """
    n = values.size
    virtual = (n - 1) * q
    if virtual >= n - 1:
        lower = upper = n - 1
        weight = virtual + 1.0
    else:
        lower = math.floor(virtual)
        upper = lower + 1
        weight = virtual - lower
    ranked = np.partition(values, sorted({lower, upper, n - 1}))
    if np.isnan(ranked[-1]):
        return float("nan")
    below = ranked[lower]
    above = ranked[upper]
    diff = above - below
    if weight >= 0.5:
        return float(above - diff * (1.0 - weight))
    return float(below + diff * weight)


def _compare(value: float, op: str, bound: float) -> bool:
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    return value >= bound
