"""Fig. 2: congested s-day / s-hour fractions vs threshold H."""

from repro.experiments import fig2


def test_fig2_threshold_sweep(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig2.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig2", fig2.render(result))

    # The curves must be monotonically non-increasing in H.
    for region, fractions in result.day_fractions.items():
        assert all(a >= b - 1e-12
                   for a, b in zip(fractions, fractions[1:])), region

    # Shape: the elbow lands near the paper's H = 0.5 and the labeled
    # fractions sit in (or near) the paper's bands.
    assert 0.3 <= result.chosen_threshold <= 0.65
    d_lo, d_hi = result.day_range_at(0.5)
    h_lo, h_hi = result.hour_range_at(0.5)
    assert 0.03 <= d_lo and d_hi <= 0.45
    assert h_hi <= 0.06
