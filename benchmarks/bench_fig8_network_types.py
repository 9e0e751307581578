"""Fig. 8: congested / non-congested servers by business type."""

from repro.cloud.regions import PAPER_US_REGIONS
from repro.experiments import fig8


def test_fig8_network_types(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig8.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig8", fig8.render(result))

    # Every U.S. region has a topology summary dominated by ISPs.
    for region in PAPER_US_REGIONS:
        summary = result.summaries[(region, "topology")]
        assert summary
        isp_total = summary.get("isp", (0, 0))[1]
        others = sum(t for b, (_c, t) in summary.items() if b != "isp")
        assert isp_total >= others, f"{region}: ISPs should dominate"

    # Paper: 30-77% of topology-selected ISP servers show congestion.
    lo, hi = result.isp_fraction_range("topology")
    assert 0.10 <= lo and hi <= 0.85
