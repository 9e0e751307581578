"""Ablation: topology-based selection vs naive alternatives.

The paper's topology-based method picks one server per interconnection
so a fixed measurement budget covers as many distinct interdomain
links as possible.  This ablation measures link coverage per measured
server against (a) random selection and (b) lowest-latency-first
selection, at the same budget.
"""

import numpy as np

from repro.report.tables import TextTable, format_percent
from repro.rng import SeedTree


def _coverage(selection, server_ids):
    return selection.links_covered_by(server_ids)


def _evaluate(pipeline, region="us-west1"):
    selection = pipeline.topology_selection(region)
    budget = min(len(selection.selected), 34)  # two VMs' worth
    topo_ids = selection.selected_ids(budget=budget)

    traced = [sid for sid, far in selection.server_links.items()
              if far is not None]
    rng = SeedTree(1234).generator("selection-ablation")
    random_cov = []
    for _ in range(5):
        sample = [traced[int(i)] for i in
                  rng.choice(len(traced), size=budget, replace=False)]
        random_cov.append(_coverage(selection, sample))

    # Lowest-latency-first ignores interconnection diversity entirely:
    # it clusters into the few interconnects closest to the region.
    by_rtt = sorted(traced, key=lambda sid: selection.server_rtts.get(
        sid, float("inf")))[:budget]

    return {
        "budget": budget,
        "total_links": selection.n_links_traversed,
        "topology": _coverage(selection, topo_ids),
        "random_mean": float(np.mean(random_cov)),
        "latency_first": _coverage(selection, by_rtt),
    }


def test_ablation_selection(benchmark, pipeline, emit):
    result = benchmark.pedantic(_evaluate, args=(pipeline,),
                                rounds=1, iterations=1)
    table = TextTable(
        ["strategy", "servers", "links covered", "coverage"],
        title="Ablation: server-selection strategies (us-west1, equal "
              "budget)")
    for name, covered in (("topology-based", result["topology"]),
                          ("random", result["random_mean"]),
                          ("lowest-latency-first",
                           result["latency_first"])):
        table.add_row([name, result["budget"], f"{covered:.1f}",
                       format_percent(covered / result["total_links"])])
    emit("ablation_selection", table.render())

    # One-server-per-link selection must dominate both baselines.
    assert result["topology"] >= result["random_mean"]
    assert result["topology"] >= result["latency_first"]
    # And the margin over random should be visible, not epsilon.
    assert result["topology"] >= result["random_mean"] * 1.1
