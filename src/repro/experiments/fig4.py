"""Fig. 4 - best-performance scatter: p95 download vs p5 latency.

Panel (a): topology-based servers from the U.S. regions (80 % of
servers between 200-600 Mbps; >90 % of points under 150 ms and above
200 Mbps; nothing saturates the 1 Gbps cap).  Panels (b)/(c): the
differential servers over the premium / standard tier (premium shows
the smaller throughput variance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..cloud.tiers import NetworkTier
from ..core.analysis import ScatterPoint, performance_scatter
from ..report.figures import FigureSeries
from ..report.tables import TextTable, format_percent
from .runner import Pipeline

__all__ = ["Fig4Panel", "Fig4Result", "run", "render"]


@dataclass
class Fig4Panel:
    name: str
    points: List[ScatterPoint]

    @property
    def downloads(self) -> np.ndarray:
        return np.array([p.p95_download_mbps for p in self.points])

    @property
    def latencies(self) -> np.ndarray:
        return np.array([p.p5_latency_ms for p in self.points])

    def in_band_fraction(self, lo: float = 200.0, hi: float = 600.0) -> float:
        d = self.downloads
        if d.size == 0:
            return 0.0
        return float(((d >= lo) & (d <= hi)).mean())

    def low_latency_fraction(self, cutoff_ms: float = 150.0) -> float:
        lat = self.latencies
        if lat.size == 0:
            return 0.0
        return float((lat < cutoff_ms).mean())

    @property
    def max_download(self) -> float:
        d = self.downloads
        return float(d.max()) if d.size else 0.0

    @property
    def download_std(self) -> float:
        d = self.downloads
        return float(d.std()) if d.size else 0.0

    def figure_series(self) -> List[FigureSeries]:
        return [
            FigureSeries(label=f"{self.name} p95 download (Mbps)",
                         y=list(self.downloads), kind="scatter"),
            FigureSeries(label=f"{self.name} p5 latency (ms)",
                         y=list(self.latencies), kind="scatter"),
        ]


@dataclass
class Fig4Result:
    panels: Dict[str, Fig4Panel]


def run(pipeline: Pipeline) -> Fig4Result:
    topo_ds = pipeline.topology_dataset()
    diff_ds = pipeline.differential_dataset()
    min_samples = max(24, pipeline.scenario.config.scale * 48)
    panels = {
        "4a topology (premium)": Fig4Panel(
            "4a", performance_scatter(topo_ds,
                                      min_samples=int(min_samples))),
        "4b differential premium": Fig4Panel(
            "4b", performance_scatter(diff_ds, tier=NetworkTier.PREMIUM,
                                      min_samples=int(min_samples))),
        "4c differential standard": Fig4Panel(
            "4c", performance_scatter(diff_ds, tier=NetworkTier.STANDARD,
                                      min_samples=int(min_samples))),
    }
    return Fig4Result(panels=panels)


def render(result: Fig4Result) -> str:
    table = TextTable(
        ["panel", "points", "200-600Mbps", "<150ms", "max Mbps",
         "download stddev"],
        title="Fig. 4: p95 download vs p5 latency per (server, month)")
    for name, panel in result.panels.items():
        table.add_row([
            name, len(panel.points),
            format_percent(panel.in_band_fraction()),
            format_percent(panel.low_latency_fraction()),
            f"{panel.max_download:.0f}",
            f"{panel.download_std:.0f}",
        ])
    prem = result.panels["4b differential premium"]
    std = result.panels["4c differential standard"]
    footer = (
        "\npaper: 80% of 4a servers in 200-600 Mbps; premium variance < "
        f"standard variance (measured: {prem.download_std:.0f} vs "
        f"{std.download_std:.0f})")
    return table.render() + footer
