"""Cross-cloud matrix throughput: pairs/sec across a 3-provider fleet.

Builds one scenario carrying all three providers (gcp + aws +
openstack WANs in a shared Internet), times :func:`run_matrix` at
two regions per provider, runs one provider-choice analysis, and
records a ``cross_cloud_matrix`` point into ``BENCH_campaign.json``
(schema ``bench-campaign/v5``, documented in
``benchmarks/README.md``) alongside the batch-scaling rows - the
existing keys in that file are preserved, so either bench can
re-anchor its own point independently.

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import json
import pathlib
import time

from repro.core.crosscloud import provider_choice, run_matrix
from repro.experiments.scenario import build_scenario
from repro.report.crosscloud import render_matrix
from repro.report.tables import TextTable

SEED = 7
SCALE = 0.05
PROVIDERS = ("aws", "openstack")  # joins the gcp primary
REGIONS_PER_PROVIDER = 2

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

SCHEMA = "bench-campaign/v5"


def test_bench_cross_cloud(emit):
    build_start = time.perf_counter()
    scenario = build_scenario(seed=SEED, scale=SCALE, stories=False,
                              providers=PROVIDERS)
    build_wall = time.perf_counter() - build_start

    start = time.perf_counter()
    matrix = run_matrix(scenario.fleet,
                        regions_per_provider=REGIONS_PER_PROVIDER)
    matrix_wall = time.perf_counter() - start

    start = time.perf_counter()
    choice = provider_choice(scenario.fleet, scenario.catalog,
                             scenario.clasp.prefix2as, "gcp", "aws",
                             seed=SEED)
    choice_wall = time.perf_counter() - start

    reachable = sum(1 for c in matrix.cells if c.reachable)
    point = {
        "providers": list(scenario.fleet.names()),
        "regions_per_provider": REGIONS_PER_PROVIDER,
        "endpoints": len(matrix.endpoints),
        "pairs": matrix.n_pairs,
        "reachable_pairs": reachable,
        "build_wall_s": round(build_wall, 3),
        "wall_s": round(matrix_wall, 3),
        "pairs_per_sec": round(matrix.n_pairs / matrix_wall, 1),
        "provider_choice_wall_s": round(choice_wall, 3),
        "provider_choice_candidates": len(choice.selection.candidates),
    }

    table = TextTable(
        ["metric", "value"],
        title=f"cross-cloud matrix: {point['endpoints']} endpoints / "
              f"{point['pairs']} pairs")
    for key in ("wall_s", "pairs_per_sec", "reachable_pairs",
                "provider_choice_wall_s", "provider_choice_candidates"):
        table.add_row([key, point[key]])
    emit("bench_cross_cloud", table.render() + "\n\n"
         + render_matrix(matrix))

    # Merge into the campaign trajectory file without clobbering the
    # batch-scaling rows (and vice versa - see bench_shard_scale.py).
    doc = {}
    if BENCH_PATH.exists():
        doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    doc["schema"] = SCHEMA
    doc["cross_cloud_matrix"] = point
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")

    assert reachable == matrix.n_pairs, (
        f"{matrix.n_pairs - reachable} unreachable endpoint pairs - "
        f"every provider WAN buys transit, so all pairs must route")
    cross = [c for c in matrix.cells if c.cross_provider]
    assert cross, "no cross-provider pairs in a 3-provider fleet"
    assert point["pairs_per_sec"] > 0.0
