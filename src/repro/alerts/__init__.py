"""Alerting & SLO layer: daemon collector, metric history, rules.

See DESIGN.md §15.  The paper's system was an always-on monitor; this
package is what makes ours *operable* - one
:class:`~repro.alerts.collector.Collector` keeps a single streaming
detector, metrics registry, and time-series history alive across
successive campaign runs, and a declarative
:class:`~repro.alerts.engine.RuleEvaluator` turns watermark advances
into a deterministic firing/resolved notification log.
"""

from .collector import Collector, concat_datasets
from .engine import Notification, RuleEvaluator
from .history import MetricHistory
from .notify import alerts_to_prometheus, notifications_to_jsonlines
from .rules import (RULE_KINDS, AbsenceRule, AlertRule, BurnRateRule,
                    ThresholdRule, default_rules, load_rules,
                    parse_rule, parse_rules)

__all__ = [
    "RULE_KINDS",
    "AbsenceRule",
    "AlertRule",
    "BurnRateRule",
    "Collector",
    "MetricHistory",
    "Notification",
    "RuleEvaluator",
    "ThresholdRule",
    "alerts_to_prometheus",
    "concat_datasets",
    "default_rules",
    "load_rules",
    "notifications_to_jsonlines",
    "parse_rule",
    "parse_rules",
]
