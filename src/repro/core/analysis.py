"""Campaign analyses behind the paper's figures.

* :func:`performance_scatter` - monthly 95th-percentile download
  throughput vs 5th-percentile latency per (VM-region, server) pair
  (Fig. 4a/4b/4c).
* :func:`tier_comparison` - relative premium-vs-standard differences
  of download/upload throughput and latency for same-hour paired
  measurements (Fig. 5a/5b/5c).
* :func:`congestion_probability` - per-server, per-local-hour event
  rates (Fig. 6).
* :func:`congested_server_summary` - congested / non-congested server
  counts by business type (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..cloud.tiers import NetworkTier
from ..errors import AnalysisError
from ..units import DAY, HOUR
from .campaign import CampaignDataset
from .congestion import CongestionReport, PairKey

__all__ = [
    "ScatterPoint",
    "performance_scatter",
    "TierComparison",
    "tier_comparison",
    "HourlyProbability",
    "congestion_probability",
    "top_congested_pairs",
    "congested_server_summary",
]


# ----------------------------------------------------------------------
# Fig. 4 - best-performance scatter


@dataclass(frozen=True)
class ScatterPoint:
    """One (pair, month) point of the Fig. 4 scatter."""

    region: str
    server_id: str
    tier: str
    month_index: int
    p95_download_mbps: float
    p5_latency_ms: float
    n_samples: int


def performance_scatter(dataset: CampaignDataset,
                        tier: Optional[NetworkTier] = None,
                        min_samples: int = 48) -> List[ScatterPoint]:
    """Monthly p95 download / p5 latency per pair.

    Months are 30-day windows from the campaign start (the paper plots
    one point per server per calendar month).
    """
    points: List[ScatterPoint] = []
    month_s = 30 * DAY
    with obs.span("analysis.performance_scatter"):
        for pair in dataset.pairs(tier=tier):
            series = dataset.table.series(pair)
            month_idx = ((series["ts"] - dataset.start_ts)
                         // month_s).astype(int)
            for month in np.unique(month_idx):
                mask = month_idx == month
                if mask.sum() < min_samples:
                    continue
                points.append(ScatterPoint(
                    region=pair[0], server_id=pair[1], tier=pair[2],
                    month_index=int(month),
                    p95_download_mbps=float(
                        np.percentile(series["download"][mask], 95)),
                    p5_latency_ms=float(
                        np.percentile(series["latency"][mask], 5)),
                    n_samples=int(mask.sum())))
    return points


# ----------------------------------------------------------------------
# Fig. 5 - premium vs standard tier


@dataclass
class TierComparison:
    """Paired same-hour tier measurements for one region."""

    region: str
    #: server_id -> arrays of relative differences, one entry per
    #: matched hour: (T_prem - T_std) / T_std.
    delta_download: Dict[str, np.ndarray] = field(default_factory=dict)
    delta_upload: Dict[str, np.ndarray] = field(default_factory=dict)
    delta_latency: Dict[str, np.ndarray] = field(default_factory=dict)
    n_matched_hours: int = 0

    def all_deltas(self, metric: str) -> np.ndarray:
        data = {"download": self.delta_download,
                "upload": self.delta_upload,
                "latency": self.delta_latency}.get(metric)
        if data is None:
            raise AnalysisError(f"unknown metric {metric!r}")
        if not data:
            return np.array([])
        return np.concatenate(list(data.values()))

    def standard_faster_fraction(self, server_id: str) -> float:
        """Fraction of matched hours where the standard tier's download
        was faster."""
        deltas = self.delta_download.get(server_id)
        if deltas is None or deltas.size == 0:
            return 0.0
        return float((deltas < 0).mean())

    def servers(self) -> List[str]:
        return sorted(self.delta_download)


def tier_comparison(dataset: CampaignDataset, region: str) -> TierComparison:
    """Pair premium/standard measurements taken in the same hour.

    Relative difference (paper's definition):
    ``delta_m = (T_prem - T_std) / T_std`` for each metric m in
    download, upload, latency.  Negative download/upload delta means
    the standard tier was faster; negative latency delta means the
    premium tier had lower latency.

    Servers whose premium/standard series share no hour (e.g. one side
    lost to faults) are dropped rather than contributing empty delta
    arrays.
    """
    comparison = TierComparison(region=region)
    with obs.span("analysis.tier_comparison"):
        prem_pairs = {p[1]: p for p in dataset.pairs(
            region=region, tier=NetworkTier.PREMIUM)}
        std_pairs = {p[1]: p for p in dataset.pairs(
            region=region, tier=NetworkTier.STANDARD)}
        for server_id in sorted(set(prem_pairs) & set(std_pairs)):
            prem = dataset.table.series(prem_pairs[server_id])
            std = dataset.table.series(std_pairs[server_id])
            prem_hours = (prem["ts"] // HOUR).astype(int)
            std_hours = (std["ts"] // HOUR).astype(int)
            common, prem_idx, std_idx = np.intersect1d(
                prem_hours, std_hours, return_indices=True)
            if common.size == 0:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                d_down = (prem["download"][prem_idx]
                          - std["download"][std_idx]) \
                    / std["download"][std_idx]
                d_up = (prem["upload"][prem_idx] - std["upload"][std_idx]) \
                    / std["upload"][std_idx]
                d_lat = (prem["latency"][prem_idx]
                         - std["latency"][std_idx]) \
                    / std["latency"][std_idx]
            keep = (np.isfinite(d_down) & np.isfinite(d_up)
                    & np.isfinite(d_lat))
            comparison.delta_download[server_id] = d_down[keep]
            comparison.delta_upload[server_id] = d_up[keep]
            comparison.delta_latency[server_id] = d_lat[keep]
            comparison.n_matched_hours += int(keep.sum())
    return comparison


# ----------------------------------------------------------------------
# Fig. 6 - hourly congestion probability


@dataclass(frozen=True)
class HourlyProbability:
    """Per-local-hour congestion probability for one pair."""

    pair: PairKey
    label: str
    #: probability[h] = events in local hour h / measurements in hour h
    probability: Tuple[float, ...]
    n_events: int

    @property
    def peak_hour(self) -> int:
        return int(np.argmax(self.probability))


def congestion_probability(dataset: CampaignDataset,
                           report: CongestionReport,
                           pair: PairKey) -> HourlyProbability:
    """Hour-of-day congestion probability (server-local time)."""
    region, server_id, tier = pair
    with obs.span("analysis.congestion_probability"):
        meta = dataset.server_meta(server_id)
        series = dataset.table.series(pair)
        local_hours = (((series["ts"] + meta.utc_offset_hours * HOUR)
                        // HOUR) % 24).astype(int)
        measurements = np.bincount(local_hours, minlength=24)
        events = np.zeros(24, dtype=int)
        for event in report.events_of(pair):
            events[event.local_hour] += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            prob = np.where(measurements > 0, events / measurements, 0.0)
    return HourlyProbability(
        pair=pair,
        label=meta.label,
        probability=tuple(float(p) for p in prob),
        n_events=int(events.sum()))


def top_congested_pairs(report: CongestionReport, region: str,
                        k: int = 10) -> List[PairKey]:
    """The *k* pairs with the most congestion events in a region."""
    counts: Dict[PairKey, int] = {}
    for event in report.events:
        if event.pair[0] != region:
            continue
        counts[event.pair] = counts.get(event.pair, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [pair for pair, _n in ranked[:k]]


# ----------------------------------------------------------------------
# Fig. 8 - congested servers by business type


def congested_server_summary(dataset: CampaignDataset,
                             report: CongestionReport,
                             region: str,
                             tier: Optional[NetworkTier] = None
                             ) -> Dict[str, Tuple[int, int]]:
    """business type -> (congested servers, total servers)."""
    out: Dict[str, Tuple[int, int]] = {}
    for pair in dataset.pairs(region=region, tier=tier):
        meta = dataset.server_meta(pair[1])
        btype = meta.business_type
        congested, total = out.get(btype, (0, 0))
        total += 1
        if report.is_congested_server(pair):
            congested += 1
        out[btype] = (congested, total)
    return out
