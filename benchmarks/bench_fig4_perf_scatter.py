"""Fig. 4: p95 download vs p5 latency scatter, three panels."""

from repro.experiments import fig4


def test_fig4_perf_scatter(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig4.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig4", fig4.render(result))

    panel_a = result.panels["4a topology (premium)"]
    assert len(panel_a.points) > 50
    # Paper: 80% of servers between 200-600 Mbps; >90% under 150 ms;
    # nothing saturates the 1 Gbps downlink shaping.
    assert panel_a.in_band_fraction() >= 0.6
    assert panel_a.low_latency_fraction() >= 0.8
    assert panel_a.max_download <= 1000.0

    prem = result.panels["4b differential premium"]
    std = result.panels["4c differential standard"]
    assert prem.points and std.points
    # Paper: the premium tier shows the smaller throughput variance.
    assert prem.download_std <= std.download_std * 1.35
