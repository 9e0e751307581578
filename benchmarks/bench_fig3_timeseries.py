"""Fig. 3: a congested pair's two-day download time series."""

from repro.experiments import fig3


def test_fig3_timeseries(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig3.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig3", fig3.render(result))

    assert result.ts.size >= 24, "need at least a day of hourly samples"
    assert result.n_congested_hours >= 1
    # Congestion labels must correspond to throughput below the
    # day-peak threshold.
    assert (result.v_h[result.congested_mask] > result.threshold).all()
