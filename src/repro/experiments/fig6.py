"""Fig. 6 - hourly congestion probability of the most-congested servers.

Panels (a)/(b): top-10 congested servers in us-east1 / us-west1, with
the probability of a congestion event per local hour of day (converted
to the *server's* timezone).  Panel (c): europe-west1 premium vs
standard tier per paired server.

Paper shape: probabilities mostly below 0.1; Cox-analog servers show
daytime congestion; Cogent-analog paths peak 7-11 pm; some
standard-tier pairs congest more than their premium twins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


from ..cloud.tiers import NetworkTier
from ..core.analysis import (
    HourlyProbability,
    congestion_probability,
    top_congested_pairs,
)
from ..core.congestion import PAPER_THRESHOLD, detect
from ..report.ascii import sparkline
from ..report.figures import FigureSeries
from .runner import Pipeline

__all__ = ["Fig6Result", "run", "render"]


@dataclass
class Fig6Result:
    #: region -> top-k hourly probability profiles
    panels: Dict[str, List[HourlyProbability]]
    #: europe-west1 paired (premium profile, standard profile) per server
    tier_pairs: List[Tuple[HourlyProbability, HourlyProbability]] = \
        field(default_factory=list)

    def peak_probability(self, region: str) -> float:
        profiles = self.panels.get(region, [])
        if not profiles:
            return 0.0
        return max(max(p.probability) for p in profiles)

    def standard_more_congested_count(self) -> int:
        """Pairs whose standard tier shows more events than premium."""
        return sum(1 for prem, std in self.tier_pairs
                   if std.n_events > prem.n_events)

    def figure_series(self) -> List[FigureSeries]:
        out = []
        for region, profiles in self.panels.items():
            for p in profiles:
                out.append(FigureSeries(
                    label=f"{region} {p.label}",
                    x=list(range(24)), y=list(p.probability)))
        return out


def run(pipeline: Pipeline, k: int = 10) -> Fig6Result:
    topo_ds = pipeline.topology_dataset()
    topo_report = pipeline.report()
    panels: Dict[str, List[HourlyProbability]] = {}
    for region in ("us-east1", "us-west1"):
        profiles = []
        for pair in top_congested_pairs(topo_report, region, k=k):
            profiles.append(congestion_probability(
                topo_ds, topo_report, pair))
        panels[region] = profiles

    diff_ds = pipeline.differential_dataset()
    diff_report = detect(diff_ds, threshold=PAPER_THRESHOLD,
                         region="europe-west1")
    tier_pairs = []
    prem_pairs = {p[1]: p for p in diff_ds.pairs(
        region="europe-west1", tier=NetworkTier.PREMIUM)}
    std_pairs = {p[1]: p for p in diff_ds.pairs(
        region="europe-west1", tier=NetworkTier.STANDARD)}
    for server_id in sorted(set(prem_pairs) & set(std_pairs)):
        prem = congestion_probability(diff_ds, diff_report,
                                      prem_pairs[server_id])
        std = congestion_probability(diff_ds, diff_report,
                                     std_pairs[server_id])
        if prem.n_events or std.n_events:
            tier_pairs.append((prem, std))
    return Fig6Result(panels=panels, tier_pairs=tier_pairs)


def render(result: Fig6Result) -> str:
    lines = ["Fig. 6: hourly congestion probability (server-local time)"]
    for region, profiles in result.panels.items():
        lines.append(f"\n[{region}] top congested servers "
                     "(hour 0 -> 23):")
        for p in profiles:
            lines.append(
                f"  {p.label[:44]:44s} {sparkline(p.probability)} "
                f"peak={max(p.probability):.2f}@{p.peak_hour:02d}h "
                f"events={p.n_events}")
    lines.append("\n[europe-west1] premium (P) vs standard (S):")
    for prem, std in result.tier_pairs:
        lines.append(f"  {prem.label[:40]:40s} "
                     f"P {sparkline(prem.probability)} ({prem.n_events})  "
                     f"S {sparkline(std.probability)} ({std.n_events})")
    lines.append(
        f"\npairs with more standard-tier congestion: "
        f"{result.standard_more_congested_count()} of "
        f"{len(result.tier_pairs)} (paper: 3 of 6)")
    return "\n".join(lines)
