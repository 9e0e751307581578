"""Motivation: why measure from the cloud instead of edge platforms.

Quantifies the paper's introduction on the same synthetic Internet: a
RIPE-Atlas-style volunteer platform has (a) vantage points biased into
large ISPs, (b) residential access caps, and (c) per-probe throughput
quotas - while the speed test catalogs reach many more networks with
well-provisioned servers, and cloud VMs can test them hourly.
"""

from repro.cloud.regions import PAPER_US_REGIONS
from repro.report.tables import TextTable, format_percent
from repro.rng import SeedTree
from repro.tools.edgeplatform import EdgePlatform


def _evaluate(pipeline):
    scenario = pipeline.scenario
    platform = EdgePlatform(scenario.internet,
                            n_probes=max(60, len(scenario.catalog) // 4),
                            seeds=SeedTree(4321))
    edge_asns = scenario.internet.edge_asns
    catalog_asns = {s.asn for s in scenario.catalog}
    catalog_coverage = sum(1 for a in edge_asns if a in catalog_asns) \
        / len(edge_asns)
    slow_probes = sum(1 for p in platform.probes
                      if p.access_mbps < 1000.0) / len(platform.probes)
    clasp_daily_tests = sum(
        len(pipeline.topology_plan(r).server_ids) * 24
        for r in PAPER_US_REGIONS)
    return {
        "n_probes": len(platform.probes),
        "probe_coverage": platform.coverage_of(edge_asns),
        "catalog_coverage": catalog_coverage,
        "big_isp_fraction": platform.big_isp_probe_fraction(),
        "slow_access_fraction": slow_probes,
        "edge_daily_tests": platform.max_daily_tests(),
        "clasp_daily_tests": clasp_daily_tests,
    }


def test_motivation_edge_platform(benchmark, pipeline, emit):
    result = benchmark.pedantic(_evaluate, args=(pipeline,),
                                rounds=1, iterations=1)
    table = TextTable(["metric", "edge platform", "CLASP"],
                      title="Motivation: edge platform vs cloud-based "
                            "speed tests")
    table.add_row(["edge-AS coverage",
                   format_percent(result["probe_coverage"]),
                   format_percent(result["catalog_coverage"])])
    table.add_row(["VPs in big ISPs",
                   format_percent(result["big_isp_fraction"]),
                   "server-diverse"])
    table.add_row(["VPs below 1 Gbps access",
                   format_percent(result["slow_access_fraction"]),
                   "0% (servers >= 1 Gbps)"])
    table.add_row(["throughput tests per day",
                   result["edge_daily_tests"],
                   result["clasp_daily_tests"]])
    emit("motivation_edge_platform", table.render())

    assert result["probe_coverage"] < result["catalog_coverage"]
    assert result["big_isp_fraction"] > 0.5
    assert result["slow_access_fraction"] > 0.5
    assert result["edge_daily_tests"] < result["clasp_daily_tests"]
