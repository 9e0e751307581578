"""Fig. 2 - fraction of congested s-days / s-hours vs threshold H.

Per U.S. region, sweep the variability threshold over [0, 1] on the
ingress (download) direction and report the fraction of pair-days with
``V(s,d) > H`` (Fig. 2a) and pair-hours with ``V_H(s,t) > H``
(Fig. 2b).  The paper picks H = 0.5 via the elbow method, landing at
11-30 % of s-days and 1.3-3 % of s-hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..cloud.regions import PAPER_US_REGIONS
from ..core.congestion import choose_threshold_elbow, threshold_sweep
from ..report.figures import FigureSeries
from ..report.tables import TextTable, format_percent
from .runner import ExperimentCache

__all__ = ["Fig2Result", "run", "render"]

THRESHOLDS = np.round(np.arange(0.05, 1.0, 0.05), 2)


@dataclass
class Fig2Result:
    thresholds: np.ndarray
    #: region -> congested s-day fraction per threshold
    day_fractions: Dict[str, np.ndarray]
    #: region -> congested s-hour fraction per threshold
    hour_fractions: Dict[str, np.ndarray]
    chosen_threshold: float

    def at(self, region: str, h: float) -> Tuple[float, float]:
        idx = int(np.argmin(np.abs(self.thresholds - h)))
        return (float(self.day_fractions[region][idx]),
                float(self.hour_fractions[region][idx]))

    def day_range_at(self, h: float) -> Tuple[float, float]:
        values = [self.at(r, h)[0] for r in self.day_fractions]
        return (min(values), max(values))

    def hour_range_at(self, h: float) -> Tuple[float, float]:
        values = [self.at(r, h)[1] for r in self.hour_fractions]
        return (min(values), max(values))

    def figure_series(self) -> List[FigureSeries]:
        out = []
        for region, fractions in sorted(self.day_fractions.items()):
            out.append(FigureSeries(
                label=f"2a {region}", x=list(self.thresholds),
                y=list(fractions), kind="line"))
        for region, fractions in sorted(self.hour_fractions.items()):
            out.append(FigureSeries(
                label=f"2b {region}", x=list(self.thresholds),
                y=list(fractions), kind="line"))
        return out


def run(cache: ExperimentCache) -> Fig2Result:
    dataset = cache.topology_dataset()
    day_fractions: Dict[str, np.ndarray] = {}
    hour_fractions: Dict[str, np.ndarray] = {}
    all_days: List[np.ndarray] = []
    for region in PAPER_US_REGIONS:
        hs, day_frac, hour_frac = threshold_sweep(
            dataset, THRESHOLDS, region=region)
        day_fractions[region] = day_frac
        hour_fractions[region] = hour_frac
        all_days.append(day_frac)
    mean_curve = np.mean(all_days, axis=0)
    chosen = choose_threshold_elbow(THRESHOLDS, mean_curve)
    return Fig2Result(thresholds=THRESHOLDS,
                      day_fractions=day_fractions,
                      hour_fractions=hour_fractions,
                      chosen_threshold=chosen)


def render(result: Fig2Result) -> str:
    table = TextTable(
        ["region", "s-days>H @0.25", "s-days>H @0.5", "s-hours>H @0.5"],
        title="Fig. 2: congested s-days / s-hours vs threshold H")
    for region in sorted(result.day_fractions):
        d25, _h25 = result.at(region, 0.25)
        d50, h50 = result.at(region, 0.5)
        table.add_row([region, format_percent(d25), format_percent(d50),
                       format_percent(h50, 2)])
    dlo, dhi = result.day_range_at(0.5)
    hlo, hhi = result.hour_range_at(0.5)
    footer = (
        f"\nelbow-chosen threshold H = {result.chosen_threshold:.2f} "
        f"(paper: 0.5)"
        f"\ns-days at H=0.5: {format_percent(dlo)} - {format_percent(dhi)} "
        f"(paper: 11% - 30%)"
        f"\ns-hours at H=0.5: {format_percent(hlo, 2)} - "
        f"{format_percent(hhi, 2)} (paper: 1.3% - 3%)")
    return table.render() + footer
