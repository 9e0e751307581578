"""Fig. 8 - congested vs non-congested servers by business type.

Per region, resolve each measured server's business type (ipinfo
analog: ISP / Hosting / Business / Education / Unknown), label servers
"congested" when more than 10 % of their days contain at least one
congestion event, and count both groups.  Paper: most servers are in
ISP networks, and 30-77 % of topology-selected ISP servers show signs
of congestion; the two tiers look similar for differential servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..cloud.regions import PAPER_DIFFERENTIAL_REGIONS, PAPER_US_REGIONS
from ..cloud.tiers import NetworkTier
from ..core.analysis import congested_server_summary
from ..core.congestion import PAPER_THRESHOLD, detect
from ..report.tables import TextTable, format_percent
from .runner import Pipeline

__all__ = ["Fig8Result", "run", "render"]


@dataclass
class Fig8Result:
    #: (region, method/tier label) -> business type -> (congested, total)
    summaries: Dict[Tuple[str, str], Dict[str, Tuple[int, int]]] = \
        field(default_factory=dict)

    def isp_congested_fraction(self, region: str,
                               label: str = "topology") -> Optional[float]:
        summary = self.summaries.get((region, label))
        if not summary or "isp" not in summary:
            return None
        congested, total = summary["isp"]
        return congested / total if total else None

    def isp_fraction_range(self, label: str = "topology"
                           ) -> Tuple[float, float]:
        values = [self.isp_congested_fraction(region, label)
                  for (region, lbl) in self.summaries if lbl == label]
        values = [v for v in values if v is not None]
        if not values:
            return (0.0, 0.0)
        return (min(values), max(values))


def _resolve_business_types(pipeline, dataset) -> None:
    """Replace generator labels with ipinfo lookups (with Unknowns)."""
    ipinfo = pipeline.scenario.clasp.ipinfo
    catalog = pipeline.scenario.catalog
    for server_id, meta in list(dataset.servers.items()):
        server = catalog.get(server_id)
        record = ipinfo.lookup(server.ip)
        # ServerMeta is frozen; rebuild with the resolved label.
        from ..core.records import ServerMeta
        dataset.servers[server_id] = ServerMeta(
            server_id=meta.server_id, asn=meta.asn, sponsor=meta.sponsor,
            city_key=meta.city_key, country=meta.country,
            utc_offset_hours=meta.utc_offset_hours, lat=meta.lat,
            lon=meta.lon, business_type=record.business_type.value)


def run(pipeline: Pipeline) -> Fig8Result:
    result = Fig8Result()
    topo_ds = pipeline.topology_dataset()
    _resolve_business_types(pipeline, topo_ds)
    topo_report = pipeline.report()
    for region in PAPER_US_REGIONS:
        result.summaries[(region, "topology")] = congested_server_summary(
            topo_ds, topo_report, region)

    diff_ds = pipeline.differential_dataset()
    _resolve_business_types(pipeline, diff_ds)
    diff_report = detect(diff_ds, threshold=PAPER_THRESHOLD)
    for region in PAPER_DIFFERENTIAL_REGIONS:
        for tier in NetworkTier:
            result.summaries[(region, tier.value)] = \
                congested_server_summary(diff_ds, diff_report, region,
                                         tier=tier)
    return result


def render(result: Fig8Result) -> str:
    table = TextTable(
        ["region", "method/tier", "type", "congested", "total",
         "fraction"],
        title="Fig. 8: congested / non-congested servers by business type")
    for (region, label), summary in sorted(result.summaries.items()):
        for btype, (congested, total) in sorted(summary.items()):
            table.add_row([region, label, btype, congested, total,
                           format_percent(congested / total)
                           if total else "-"])
    lo, hi = result.isp_fraction_range("topology")
    footer = (f"\nISP servers congested (topology): "
              f"{format_percent(lo)} - {format_percent(hi)} "
              "(paper: 30% - 77%)")
    return table.render() + footer
