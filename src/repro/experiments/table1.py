"""Table 1 - coverage of topology-based server selection.

Columns per region: interdomain links bdrmap found in the pilot scan,
distinct links all U.S. test servers traversed, links covered by the
(budget-capped) servers CLASP measured, and the resulting coverage
fraction (the paper reports 20.7 % - 69.4 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..cloud.regions import PAPER_TABLE1_REGIONS
from ..report.tables import TextTable, format_percent
from .runner import Pipeline

__all__ = ["Table1Row", "Table1Result", "run", "render"]

#: Paper values for side-by-side comparison in the rendered table.
PAPER_ROWS = {
    "us-west1": (5293, 325, 106),
    "us-west2": (6609, 121, 25),
    "us-east1": (6217, 265, 184),
    "us-east4": (5255, 111, 40),
    "us-central1": (6582, 144, 56),
}


@dataclass(frozen=True)
class Table1Row:
    region: str
    n_interdomain_links: int
    n_links_traversed: int
    n_servers_measured: int
    n_links_covered: int
    coverage: float
    shared_fraction: float


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def by_region(self) -> Dict[str, Table1Row]:
        return {r.region: r for r in self.rows}

    @property
    def coverage_range(self) -> tuple:
        values = [r.coverage for r in self.rows]
        return (min(values), max(values))


def run(pipeline: Pipeline) -> Table1Result:
    """Run the pilot scans and compute the coverage table."""
    rows: List[Table1Row] = []
    for region in PAPER_TABLE1_REGIONS:
        selection = pipeline.topology_selection(region)
        plan = pipeline.topology_plan(region)
        measured_ids = plan.server_ids
        rows.append(Table1Row(
            region=region,
            n_interdomain_links=selection.n_interdomain_links,
            n_links_traversed=selection.n_links_traversed,
            n_servers_measured=len(measured_ids),
            n_links_covered=selection.links_covered_by(measured_ids),
            coverage=selection.coverage(measured_ids),
            shared_fraction=selection.shared_interconnection_fraction,
        ))
    return Table1Result(rows=rows)


def render(result: Table1Result) -> str:
    table = TextTable(
        ["region", "bdrmap links", "links traversed",
         "servers measured", "links covered", "coverage",
         "servers sharing", "paper(links/trav/meas)"],
        title="Table 1: coverage of topology-based server selection")
    for row in result.rows:
        paper = PAPER_ROWS.get(row.region)
        paper_text = (f"{paper[0]}/{paper[1]}/{paper[2]}"
                      if paper else "-")
        table.add_row([
            row.region, row.n_interdomain_links, row.n_links_traversed,
            row.n_servers_measured, row.n_links_covered,
            format_percent(row.coverage),
            format_percent(row.shared_fraction),
            paper_text,
        ])
    lo, hi = result.coverage_range
    footer = (f"\ncoverage range: {format_percent(lo)} - "
              f"{format_percent(hi)} (paper: 20.7% - 69.4%)")
    return table.render() + footer
