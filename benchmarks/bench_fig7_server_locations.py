"""Fig. 7: locations of regions and selected servers."""

from repro.cloud.regions import PAPER_DIFFERENTIAL_REGIONS, PAPER_US_REGIONS
from repro.experiments import fig7


def test_fig7_server_locations(benchmark, pipeline, emit):
    result = benchmark.pedantic(fig7.run, args=(pipeline,),
                                rounds=1, iterations=1)
    emit("fig7", fig7.render(result))

    # Topology-based selections are U.S.-only (paper appendix A).
    for region in PAPER_US_REGIONS:
        assert result.topology_points[region], region
        assert result.all_us(region), region

    # Differential selections span the globe.
    for region in PAPER_DIFFERENTIAL_REGIONS:
        assert result.differential_points[region], region
    assert result.countries_spanned("europe-west1") >= 3
