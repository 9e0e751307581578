"""The paper's headline findings, paper-vs-measured in one table.

Collapses the key quantitative claims from the abstract/introduction
into a single comparison the other benchmarks back in detail.
"""

import numpy as np

from repro.cloud.tiers import NetworkTier
from repro.core.analysis import performance_scatter, tier_comparison
from repro.core.congestion import threshold_sweep
from repro.report.tables import TextTable


def _evaluate(pipeline):
    topo_ds = pipeline.topology_dataset()
    diff_ds = pipeline.differential_dataset()
    findings = {}

    hs, day_frac, hour_frac = threshold_sweep(
        topo_ds, np.array([0.5]))
    findings["s-days congested @H=0.5"] = (
        "11% - 30%", f"{day_frac[0] * 100:.1f}%")
    findings["s-hours congested @H=0.5"] = (
        "1.3% - 3%", f"{hour_frac[0] * 100:.2f}%")

    report = pipeline.report()
    isp_pairs = [p for p in report.pair_hours
                 if topo_ds.server_meta(p[1]).business_type == "isp"]
    congested_isp = [p for p in isp_pairs
                     if report.is_congested_server(p)]
    frac = len(congested_isp) / len(isp_pairs) if isp_pairs else 0.0
    findings["ISP servers congested >10% of days"] = (
        "30% - 70%", f"{frac * 100:.1f}%")

    points = performance_scatter(topo_ds, min_samples=48)
    p95 = np.array([p.p95_download_mbps for p in points])
    in_band = ((p95 >= 200) & (p95 <= 600)).mean()
    findings["servers with p95 download 200-600 Mbps"] = (
        "~80%", f"{in_band * 100:.1f}%")
    findings["max p95 download (1 Gbps cap)"] = (
        "< 1000 Mbps", f"{p95.max():.0f} Mbps")

    uploads = []
    for pair in topo_ds.pairs():
        uploads.append(np.percentile(
            topo_ds.table.series(pair)["upload"], 95))
    findings["p95 upload at the 100 Mbps tc cap"] = (
        "~100 Mbps", f"{np.median(uploads):.0f} Mbps (median)")

    comparison = tier_comparison(diff_ds, "europe-west1")
    deltas = comparison.all_deltas("download")
    findings["standard tier faster downloads"] = (
        "generally (>50%)", f"{(deltas < 0).mean() * 100:.1f}%")
    lossy = 0
    for pair in diff_ds.pairs(region="europe-west1",
                              tier=NetworkTier.PREMIUM):
        if diff_ds.table.series(pair)["loss_down"].mean() > 0.10:
            lossy += 1
    findings["premium targets with >10% loss"] = ("8", str(lossy))
    return findings


def test_headline_findings(benchmark, pipeline, emit):
    findings = benchmark.pedantic(_evaluate, args=(pipeline,),
                                  rounds=1, iterations=1)
    table = TextTable(["finding", "paper", "measured"],
                      title="Headline findings: paper vs this "
                            "reproduction")
    for name, (paper, measured) in findings.items():
        table.add_row([name, paper, measured])
    emit("headline_findings", table.render())

    # Hard shape assertions on the most load-bearing claims.
    day = float(findings["s-days congested @H=0.5"][1].rstrip("%"))
    hour = float(findings["s-hours congested @H=0.5"][1].rstrip("%"))
    assert 5.0 <= day <= 45.0
    assert 0.5 <= hour <= 6.0
    std_faster = float(
        findings["standard tier faster downloads"][1].rstrip("%"))
    assert std_faster >= 50.0
    assert int(findings["premium targets with >10% loss"][1]) >= 3
