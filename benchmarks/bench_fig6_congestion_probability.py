"""Fig. 6: hourly congestion probability of top congested servers."""

from repro.experiments import fig6


def test_fig6_congestion_probability(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig6.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig6", fig6.render(result))

    for region in ("us-east1", "us-west1"):
        profiles = result.panels[region]
        assert profiles, f"no congested servers found in {region}"
        for p in profiles:
            assert len(p.probability) == 24
            assert all(0.0 <= v <= 1.0 for v in p.probability)
        # Paper: the probability of these congested servers is "often
        # below 0.1" but clearly nonzero at the peak.
        assert 0.0 < result.peak_probability(region) <= 1.0

    # Paper (Fig. 6c): some pairs congest more on the standard tier.
    assert result.tier_pairs, "no congested differential pairs"
    assert result.standard_more_congested_count() >= 1
