"""Declarative alerting rules over the daemon's metric history.

A rule is a frozen dataclass: what to watch (a history table, a scope
of exact tag matches), how to judge it (a window aggregate, a
staleness horizon, or an SLO burn rate), and how urgently
(*severity*, *for_intervals*).  The taxonomy mirrors
:mod:`repro.engine.events`: every concrete rule class carries a
literal ``kind`` ClassVar, is registered in :data:`RULE_KINDS`, and
must be handled by a ``RuleEvaluator._eval_<kind>`` method -
``tests/test_alerts.py::test_rule_kinds_registry_mirrors_evaluator``
keeps all three in sync.

Rules files are plain JSON - either a list of rule objects or
``{"rules": [...]}`` - each object a flat dict whose ``kind`` picks
the class and whose remaining keys are its fields.  Parsing is strict:
unknown kinds, unknown fields, and invalid values all raise
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (Any, ClassVar, Dict, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..errors import ConfigError

__all__ = [
    "RULE_KINDS",
    "AbsenceRule",
    "AlertRule",
    "BurnRateRule",
    "ThresholdRule",
    "default_rules",
    "load_rules",
    "parse_rule",
    "parse_rules",
]

_SEVERITIES = ("page", "ticket", "info")
_AGGREGATES = ("p50", "p90", "p99", "mean", "min", "max", "count")
_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class AlertRule:
    """Base of every alerting rule.

    The optional *provider*/*region*/*tier* fields scope the rule to
    exact tag matches in the history tables (``None`` matches every
    value); *for_intervals* is the number of consecutive breached
    evaluations required before the rule fires (Prometheus ``for:``).
    """

    kind: ClassVar[str] = "rule"

    name: str
    severity: str = "page"
    provider: Optional[str] = None
    region: Optional[str] = None
    tier: Optional[str] = None
    for_intervals: int = 1

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("alert rule needs a non-empty name")
        if self.severity not in _SEVERITIES:
            raise ConfigError(
                f"rule {self.name!r}: severity must be one of "
                f"{_SEVERITIES}, got {self.severity!r}")
        if self.for_intervals < 1:
            raise ConfigError(
                f"rule {self.name!r}: for_intervals must be >= 1, "
                f"got {self.for_intervals}")

    def scope(self) -> Dict[str, str]:
        """Exact-match tag filters for history queries."""
        out: Dict[str, str] = {}
        for tag in ("provider", "region", "tier"):
            value = getattr(self, tag)
            if value is not None:
                out[tag] = value
        return out


@dataclass(frozen=True)
class ThresholdRule(AlertRule):
    """An aggregate over a history window compared to a constant.

    Breaches when ``agg(field values in the trailing window_hours)
    op value``; an empty window never breaches (use
    :class:`AbsenceRule` to catch missing data).
    """

    kind: ClassVar[str] = "threshold"

    table: str = "throughput"
    field: str = "download_mbps"
    agg: str = "p50"
    op: str = "<"
    value: float = 0.0
    window_hours: float = 6.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.agg not in _AGGREGATES:
            raise ConfigError(
                f"rule {self.name!r}: agg must be one of "
                f"{_AGGREGATES}, got {self.agg!r}")
        if self.op not in _OPS:
            raise ConfigError(
                f"rule {self.name!r}: op must be one of {_OPS}, "
                f"got {self.op!r}")
        if self.window_hours <= 0:
            raise ConfigError(
                f"rule {self.name!r}: window_hours must be > 0, "
                f"got {self.window_hours}")


@dataclass(frozen=True)
class AbsenceRule(AlertRule):
    """Staleness: no row in the scoped table for *stale_hours*.

    Breaches when the newest matching row (or, before any row exists,
    the collector's anchor time) is more than *stale_hours* behind the
    evaluation watermark.
    """

    kind: ClassVar[str] = "absence"

    table: str = "throughput"
    stale_hours: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.stale_hours <= 0:
            raise ConfigError(
                f"rule {self.name!r}: stale_hours must be > 0, "
                f"got {self.stale_hours}")


@dataclass(frozen=True)
class BurnRateRule(AlertRule):
    """SLO burn rate: scoped event arrivals against an error budget.

    The budget allows *budget* events per *period_days*; the observed
    rate over the trailing *window_hours* is divided by the allowed
    rate, and the rule breaches when that ratio exceeds *max_burn*
    (1.0 = burning exactly on budget).
    """

    kind: ClassVar[str] = "burn-rate"

    table: str = "vh_events"
    budget: float = 10.0
    period_days: float = 7.0
    window_hours: float = 24.0
    max_burn: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for attr in ("budget", "period_days", "window_hours",
                     "max_burn"):
            if getattr(self, attr) <= 0:
                raise ConfigError(
                    f"rule {self.name!r}: {attr} must be > 0, "
                    f"got {getattr(self, attr)}")

    def budget_rate(self) -> float:
        """Allowed events per hour."""
        return self.budget / (self.period_days * 24.0)


#: Every rule kind the evaluator handles, in taxonomy order.  The
#: registry test checks it against the classes above and the evaluator.
RULE_KINDS: Tuple[str, ...] = tuple(
    cls.kind for cls in (ThresholdRule, AbsenceRule, BurnRateRule))

_RULE_CLASSES: Dict[str, type] = {
    cls.kind: cls for cls in (ThresholdRule, AbsenceRule, BurnRateRule)}


def parse_rule(spec: Mapping[str, Any]) -> AlertRule:
    """Build one rule from a flat dict with a ``kind`` key."""
    if not isinstance(spec, Mapping):
        raise ConfigError(
            f"rule spec must be an object, got {type(spec).__name__}")
    data = dict(spec)
    kind = data.pop("kind", None)
    cls = _RULE_CLASSES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown rule kind {kind!r}; known kinds: "
            f"{', '.join(RULE_KINDS)}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"rule {data.get('name', '?')!r}: unknown fields "
            f"{unknown} for kind {kind!r}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"invalid {kind!r} rule: {exc}") from None


def parse_rules(specs: Sequence[Mapping[str, Any]]
                ) -> Tuple[AlertRule, ...]:
    """Parse a list of rule specs; duplicate names raise."""
    rules = tuple(parse_rule(spec) for spec in specs)
    names = [rule.name for rule in rules]
    dupes = sorted({name for name in names if names.count(name) > 1})
    if dupes:
        raise ConfigError(f"duplicate rule names: {dupes}")
    return rules


def load_rules(path: Union[str, Path]) -> Tuple[AlertRule, ...]:
    """Load a JSON rules file (a list, or ``{"rules": [...]}``)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read rules file {path}: {exc}"
                          ) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"rules file {path} is not valid JSON: {exc}"
                          ) from None
    if isinstance(doc, Mapping):
        doc = doc.get("rules")
    if not isinstance(doc, list):
        raise ConfigError(
            f"rules file {path} must hold a JSON list of rules or "
            "an object with a 'rules' list")
    return parse_rules(doc)


def default_rules() -> Tuple[AlertRule, ...]:
    """The shipped rule set (mirrored in examples/rules_default.json).

    One rule per kind: a V_H burn-rate SLO (the paper's headline
    signal), a throughput floor, and a data-staleness guard.
    """
    return (
        BurnRateRule(name="vh-budget-burn", severity="page",
                     budget=6.0, period_days=7.0, window_hours=24.0,
                     max_burn=2.0),
        ThresholdRule(name="download-p50-floor", severity="ticket",
                      table="throughput", field="download_mbps",
                      agg="p50", op="<", value=50.0,
                      window_hours=6.0, for_intervals=3),
        AbsenceRule(name="no-measurements", severity="page",
                    table="throughput", stale_hours=3.0),
    )
