"""Fig. 5: premium vs standard tier relative differences (europe-west1)."""

import numpy as np

from repro.experiments import fig5


def test_fig5_tier_comparison(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig5.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig5", fig5.render(result))

    downloads = result.all_deltas("download")
    uploads = result.all_deltas("upload")
    assert downloads.size > 200 and uploads.size > 200

    # Paper: standard-tier throughput is generally higher (the
    # download delta CDF skews negative).
    assert result.standard_faster_fraction("download") >= 0.5
    assert float(np.median(downloads)) <= 0.05

    # Paper: several servers see the standard tier faster in >=87% of
    # matched hours.
    assert len(result.consistently_standard_faster()) >= 2

    # Upload is pinned near the 100 Mbps shaping in both tiers, so the
    # relative differences stay modest.
    assert result.modest_delta_fraction("upload") >= 0.85

    # Paper (Fig. 4b/5a): the premium tier's hourly download variance
    # is the smaller of the two.
    dataset = pipeline.differential_dataset()
    from repro.cloud.tiers import NetworkTier
    prem_std = np.median([
        np.std(dataset.table.series(p)["download"])
        for p in dataset.pairs(region="europe-west1",
                               tier=NetworkTier.PREMIUM)])
    std_std = np.median([
        np.std(dataset.table.series(p)["download"])
        for p in dataset.pairs(region="europe-west1",
                               tier=NetworkTier.STANDARD)])
    assert prem_std <= std_std * 1.1
