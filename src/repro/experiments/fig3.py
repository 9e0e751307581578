"""Fig. 3 - a two-day download time series with congestion highlighted.

The paper shows Cox (Las Vegas) to us-west1: hourly download throughput
over two days, the normalized intra-day difference V_H, and the hours
where V_H > 0.5 shaded.  We pick the pair with the most congestion
events whose server belongs to the Cox-analog story network (falling
back to the most-congested pair overall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.congestion import PAPER_THRESHOLD, hourly_variability
from ..report.ascii import ascii_series, sparkline
from ..report.figures import FigureSeries
from ..simclock import format_ts
from ..units import DAY
from .runner import Pipeline
from ..errors import AnalysisError

__all__ = ["Fig3Result", "run", "render"]


@dataclass
class Fig3Result:
    pair: Tuple[str, str, str]
    label: str
    ts: np.ndarray
    throughput: np.ndarray
    v_h: np.ndarray
    congested_mask: np.ndarray
    threshold: float

    @property
    def n_congested_hours(self) -> int:
        return int(self.congested_mask.sum())

    def figure_series(self) -> List[FigureSeries]:
        return [
            FigureSeries(label=f"download {self.label}",
                         x=list(self.ts), y=list(self.throughput)),
            FigureSeries(label="V_H", x=list(self.ts), y=list(self.v_h)),
        ]


def run(pipeline: Pipeline, window_days: int = 2) -> Fig3Result:
    dataset = pipeline.topology_dataset()
    report = pipeline.report()

    cox_asn = pipeline.scenario.story_asns.get("cox")
    candidates = {}
    for event in report.events:
        candidates[event.pair] = candidates.get(event.pair, 0) + 1
    chosen = None
    if cox_asn is not None:
        cox_pairs = [p for p in candidates
                     if dataset.server_meta(p[1]).asn == cox_asn]
        if cox_pairs:
            chosen = max(cox_pairs, key=lambda p: candidates[p])
    if chosen is None and candidates:
        chosen = max(candidates, key=lambda p: candidates[p])
    if chosen is None:
        raise AnalysisError("no congestion events found to illustrate")

    series = dataset.table.series(chosen)
    ts_all, vh_all = hourly_variability(dataset, chosen)
    # Find the densest 2-day window of events.
    events_ts = np.array(sorted(
        e.ts for e in report.events_of(chosen)))
    best_start = events_ts[0]
    best_count = 0
    for start in events_ts:
        count = int(((events_ts >= start)
                     & (events_ts < start + window_days * DAY)).sum())
        if count > best_count:
            best_count = count
            best_start = start
    window_start = (best_start // DAY) * DAY
    window_end = window_start + window_days * DAY

    mask = (series["ts"] >= window_start) & (series["ts"] < window_end)
    vh_mask = (ts_all >= window_start) & (ts_all < window_end)
    ts = series["ts"][mask]
    vh_ts = ts_all[vh_mask]
    vh = vh_all[vh_mask]
    # Align V_H onto the throughput timestamps.
    vh_aligned = np.interp(ts, vh_ts, vh) if vh_ts.size else np.zeros(ts.size)

    meta = dataset.server_meta(chosen[1])
    return Fig3Result(
        pair=chosen,
        label=f"{meta.label} -> {chosen[0]}",
        ts=ts,
        throughput=series["download"][mask],
        v_h=vh_aligned,
        congested_mask=vh_aligned > PAPER_THRESHOLD,
        threshold=PAPER_THRESHOLD,
    )


def render(result: Fig3Result) -> str:
    shade = "".join("^" if c else " " for c in result.congested_mask)
    lines = [
        f"Fig. 3: two-day download throughput, {result.label}",
        f"window starts {format_ts(result.ts[0]) if result.ts.size else '-'} UTC",
        ascii_series(result.throughput, width=max(8, result.ts.size)),
        f"congested  {shade}",
        f"V_H        {sparkline(result.v_h)}",
        f"{result.n_congested_hours} congested hours "
        f"(V_H > {result.threshold}) in the window",
    ]
    return "\n".join(lines)
