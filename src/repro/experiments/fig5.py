"""Fig. 5 - premium vs standard tier, europe-west1.

CDFs of the relative difference Delta_m = (T_prem - T_std) / T_std for
download throughput (5a), upload throughput (5b), and latency (5c),
with measurements grouped by the preliminary-study latency class of
the target (premium-lower / comparable / standard-lower).

Paper shape: the standard tier's throughput is generally higher
(download deltas skew negative, at least 87 % of measurements negative
for 8 servers), most relative differences are modest, and the premium
tier's latency advantage matches the preliminary classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..core.analysis import TierComparison, tier_comparison
from ..core.selection.differential import DifferentialSelection, LatencyClass
from ..report.figures import FigureSeries
from ..report.tables import TextTable, format_percent
from .runner import Pipeline

__all__ = ["Fig5Result", "run", "render"]

REGION = "europe-west1"


@dataclass
class Fig5Result:
    comparison: TierComparison
    selection: DifferentialSelection
    #: metric -> latency class -> concatenated deltas
    deltas_by_class: Dict[str, Dict[LatencyClass, np.ndarray]] = \
        field(default_factory=dict)

    def all_deltas(self, metric: str) -> np.ndarray:
        return self.comparison.all_deltas(metric)

    def standard_faster_fraction(self, metric: str = "download") -> float:
        deltas = self.all_deltas(metric)
        return float((deltas < 0).mean()) if deltas.size else 0.0

    def modest_delta_fraction(self, metric: str = "download",
                              bound: float = 0.5) -> float:
        deltas = self.all_deltas(metric)
        if deltas.size == 0:
            return 0.0
        return float((np.abs(deltas) < bound).mean())

    def consistently_standard_faster(self, cutoff: float = 0.87
                                     ) -> List[str]:
        return [s for s in self.comparison.servers()
                if self.comparison.standard_faster_fraction(s) >= cutoff]

    def figure_series(self) -> List[FigureSeries]:
        out = []
        for metric in ("download", "upload", "latency"):
            for cls, deltas in self.deltas_by_class.get(metric, {}).items():
                if deltas.size:
                    out.append(FigureSeries(
                        label=f"5{'abc'['download upload latency'.split().index(metric)]} "
                              f"{cls.value}",
                        y=list(deltas), kind="cdf"))
        return out


def run(pipeline: Pipeline) -> Fig5Result:
    dataset = pipeline.differential_dataset()
    selection = pipeline.differential_selection(REGION)
    comparison = tier_comparison(dataset, REGION)

    class_of: Dict[str, LatencyClass] = {}
    for server, candidate in selection.selected:
        class_of[server.server_id] = candidate.latency_class

    result = Fig5Result(comparison=comparison, selection=selection)
    metric_data = {
        "download": comparison.delta_download,
        "upload": comparison.delta_upload,
        "latency": comparison.delta_latency,
    }
    for metric, per_server in metric_data.items():
        grouped: Dict[LatencyClass, List[np.ndarray]] = {
            c: [] for c in LatencyClass}
        for server_id, deltas in per_server.items():
            cls = class_of.get(server_id)
            if cls is not None:
                grouped[cls].append(deltas)
        result.deltas_by_class[metric] = {
            cls: (np.concatenate(chunks) if chunks else np.array([]))
            for cls, chunks in grouped.items()}
    return result


def render(result: Fig5Result) -> str:
    table = TextTable(
        ["metric", "latency class", "n", "std faster", "median delta",
         "|delta|<0.5"],
        title=f"Fig. 5: tier comparison in {REGION} "
              "(delta = (prem - std) / std)")
    for metric in ("download", "upload", "latency"):
        for cls in LatencyClass:
            deltas = result.deltas_by_class[metric].get(cls,
                                                        np.array([]))
            if deltas.size == 0:
                continue
            table.add_row([
                metric, cls.value, deltas.size,
                format_percent(float((deltas < 0).mean())),
                f"{np.median(deltas):+.3f}",
                format_percent(float((np.abs(deltas) < 0.5).mean())),
            ])
    consistent = result.consistently_standard_faster()
    footer = (
        f"\noverall: std faster downloads in "
        f"{format_percent(result.standard_faster_fraction('download'))} "
        "of matched hours (paper: standard generally higher)"
        f"\nservers with >=87% std-faster downloads: {len(consistent)} "
        "(paper: 8)"
        f"\n|delta| < 0.5 for "
        f"{format_percent(result.modest_delta_fraction('download'))} of "
        "download measurements (paper: >92%)")
    return table.render() + footer
