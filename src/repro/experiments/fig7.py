"""Fig. 7 - locations of cloud regions and selected servers.

The paper's appendix maps each region's selected servers
(topology-based servers are all U.S.; differential-based servers span
the globe).  We reproduce the underlying data - coordinates per region
and method - and render a coarse ASCII world map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cloud.regions import PAPER_DIFFERENTIAL_REGIONS, PAPER_US_REGIONS
from ..report.tables import TextTable
from .runner import ExperimentCache

__all__ = ["Fig7Result", "run", "render", "ascii_map"]


@dataclass
class Fig7Result:
    #: region -> list of (lat, lon) of topology-selected servers
    topology_points: Dict[str, List[Tuple[float, float]]] = \
        field(default_factory=dict)
    #: region -> list of (lat, lon) of differential-selected servers
    differential_points: Dict[str, List[Tuple[float, float]]] = \
        field(default_factory=dict)
    #: region -> (lat, lon) of the region itself
    region_points: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def all_us(self, region: str) -> bool:
        """Topology-based selections must be U.S.-only (paper check)."""
        pts = self.topology_points.get(region, [])
        return all(18.0 <= lat <= 72.0 and -170.0 <= lon <= -60.0
                   for lat, lon in pts)

    def countries_spanned(self, region: str) -> int:
        """Rough spread metric for differential selections."""
        return len({(round(lat / 10), round(lon / 10))
                    for lat, lon in self.differential_points.get(region, [])})


def run(cache: ExperimentCache) -> Fig7Result:
    scenario = cache.scenario
    topo = scenario.internet.topology
    result = Fig7Result()
    for region in PAPER_US_REGIONS:
        plan = cache.topology_plan(region)
        pts = []
        for server_id in plan.server_ids:
            server = scenario.catalog.get(server_id)
            pts.append((server.lat, server.lon))
        result.topology_points[region] = pts
        city = topo.cities[
            scenario.clasp.platform.region_pop(region).city_key]
        result.region_points[region] = (city.point.lat, city.point.lon)
    for region in PAPER_DIFFERENTIAL_REGIONS:
        selection = cache.differential_selection(region)
        result.differential_points[region] = [
            (server.lat, server.lon) for server, _c in selection.selected]
        city = topo.cities[
            scenario.clasp.platform.region_pop(region).city_key]
        result.region_points[region] = (city.point.lat, city.point.lon)
    return result


def ascii_map(points: List[Tuple[float, float]],
              marker: str = "o",
              region: Tuple[float, float] = None,
              width: int = 72, height: int = 20) -> str:
    """Plot lat/lon points on a coarse equirectangular grid."""
    grid = [[" "] * width for _ in range(height)]

    def place(lat: float, lon: float, ch: str) -> None:
        col = int(round((lon + 180.0) / 360.0 * (width - 1)))
        row = int(round((90.0 - lat) / 180.0 * (height - 1)))
        grid[max(0, min(height - 1, row))][max(0, min(width - 1, col))] = ch

    for lat, lon in points:
        place(lat, lon, marker)
    if region is not None:
        place(region[0], region[1], "R")
    return "\n".join("".join(row) for row in grid)


def render(result: Fig7Result) -> str:
    lines = ["Fig. 7: cloud regions (R) and selected servers (o / d)"]
    table = TextTable(["region", "topology servers", "differential servers",
                       "topology all-US"])
    for region in sorted(result.region_points):
        table.add_row([
            region,
            len(result.topology_points.get(region, [])),
            len(result.differential_points.get(region, [])),
            "yes" if result.all_us(region) else
            ("n/a" if region not in result.topology_points else "NO"),
        ])
    lines.append(table.render())
    # One combined map: topology servers 'o', differential 'd'.
    topo_pts = [p for pts in result.topology_points.values() for p in pts]
    diff_pts = [p for pts in result.differential_points.values()
                for p in pts]
    base = ascii_map(topo_pts, "o").splitlines()
    overlay = ascii_map(diff_pts, "d").splitlines()
    merged = []
    for row_a, row_b in zip(base, overlay):
        merged.append("".join(b if b != " " else a
                              for a, b in zip(row_a, row_b)))
    lines.append("\n".join(merged))
    return "\n".join(lines)
