"""Exporters: turn obs state into JSON-lines, Prometheus text, tables.

Everything here is a pure serializer over :class:`SpanTotal` rows and
:meth:`MetricsRegistry.snapshot` dicts - no I/O except
:func:`write_profile`, which materialises one profile directory so
``--profile PATH`` on the CLI is a single call.

Output ordering is deterministic (sorted metric and span names), so
the profile artifacts' structure diffs cleanly between runs.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from ..units import s_to_ms
from .metrics import MetricsRegistry, snapshot_percentile
from .spans import SpanTotal, Tracer

__all__ = [
    "metrics_to_jsonlines",
    "metrics_to_prometheus",
    "span_totals_to_jsonlines",
    "write_profile",
]

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    safe = _PROM_BAD.sub("_", name)
    if not safe or safe[0].isdigit():
        safe = "_" + safe
    return safe


def _fmt(value: float) -> str:
    """Render a sample value; integral floats lose the trailing .0."""
    return str(int(value)) if float(value).is_integer() else repr(value)


# ----------------------------------------------------------------------
# metrics


def metrics_to_jsonlines(snapshot: Dict[str, Any]) -> str:
    """One JSON object per metric: ``{"kind", "name", ...}`` lines."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        lines.append(json.dumps(
            {"kind": "counter", "name": name, "value": value},
            sort_keys=True))
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(json.dumps(
            {"kind": "gauge", "name": name, "value": value},
            sort_keys=True))
    for name, hist in snapshot.get("histograms", {}).items():
        lines.append(json.dumps(
            {"kind": "histogram", "name": name, **hist}, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_to_prometheus(snapshot: Dict[str, Any]) -> str:
    """Prometheus text exposition format (counters, gauges, histograms).

    Histogram buckets are converted from the registry's sparse
    ``{"<N": count}`` shape to the cumulative ``le``-labelled series
    Prometheus expects, ending with the mandatory ``le="+Inf"`` bucket,
    followed by ``_p50``/``_p90``/``_p99`` upper-bound summaries.
    """
    out: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} counter")
        out.append(f"{prom} {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} gauge")
        out.append(f"{prom} {_fmt(value)}")
    for name, hist in snapshot.get("histograms", {}).items():
        prom = _prom_name(name)
        out.append(f"# TYPE {prom} histogram")
        bounds = sorted((int(key[1:]), count) for key, count
                        in hist.get("buckets", {}).items())
        cumulative = 0
        for bound, count in bounds:
            cumulative += count
            out.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
        out.append(f'{prom}_bucket{{le="+Inf"}} {hist["count"]}')
        out.append(f"{prom}_sum {_fmt(hist['mean'] * hist['count'])}")
        out.append(f"{prom}_count {hist['count']}")
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            out.append(
                f"{prom}_{label} {_fmt(snapshot_percentile(hist, q))}")
    return "\n".join(out) + ("\n" if out else "")


# ----------------------------------------------------------------------
# span totals


def span_totals_to_jsonlines(totals: Sequence[SpanTotal]) -> str:
    """One JSON object per span name, in the order given."""
    lines = [json.dumps(row.payload(), sort_keys=True) for row in totals]
    return "\n".join(lines) + ("\n" if lines else "")


def _profile_report(totals: Sequence[SpanTotal]) -> str:
    """Self wall time per layer, then every span name's row."""
    layers: Dict[str, List[float]] = {}
    for row in totals:
        calls_self = layers.setdefault(row.layer, [0, 0.0])
        calls_self[0] += row.calls
        calls_self[1] += row.self_s
    spent = sum(self_s for _calls, self_s in layers.values()) or 1.0
    report = ["# self wall time by layer", "",
              f"{'layer':<12} {'calls':>8} {'self_ms':>12} {'share':>6}"]
    for layer, (calls, self_s) in sorted(
            layers.items(), key=lambda item: (-item[1][1], item[0])):
        report.append(f"{layer:<12} {calls:>8d} "
                      f"{s_to_ms(self_s):>12.3f} {self_s / spent:>6.1%}")
    report += ["", "# spans by self wall time", "",
               f"{'calls':>8} {'total_ms':>12} {'self_ms':>12} "
               f"{'errors':>6}  name"]
    for row in sorted(totals, key=lambda row: (-row.self_s, row.name)):
        report.append(f"{row.calls:>8d} {s_to_ms(row.total_s):>12.3f} "
                      f"{s_to_ms(row.self_s):>12.3f} {row.errors:>6d}  "
                      f"{row.name}")
    return "\n".join(report) + "\n"


# ----------------------------------------------------------------------
# profile directory


def write_profile(path: Union[str, Path], tracer: Tracer,
                  registry: MetricsRegistry) -> List[Path]:
    """Write a self-contained profile directory and return its files.

    Layout::

        PATH/spans.jsonl     one line per span name
        PATH/metrics.jsonl   one line per metric
        PATH/metrics.prom    Prometheus text format
        PATH/profile.txt     self time per layer, then per span name
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    totals = tracer.totals()
    snapshot = registry.snapshot()
    files = []
    for name, text in (
            ("spans.jsonl", span_totals_to_jsonlines(totals)),
            ("metrics.jsonl", metrics_to_jsonlines(snapshot)),
            ("metrics.prom", metrics_to_prometheus(snapshot)),
            ("profile.txt", _profile_report(totals))):
        target = root / name
        target.write_text(text, encoding="utf-8")
        files.append(target)
    return files
