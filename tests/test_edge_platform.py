"""Edge-platform motivation: probe coverage vs the speed test catalog."""

import pytest

from repro.errors import MeasurementError
from repro.rng import SeedTree


def test_edge_platform_coverage_gap(small_scenario):
    from repro.tools.edgeplatform import EdgePlatform
    scenario = small_scenario
    platform = EdgePlatform(scenario.internet, n_probes=120,
                            seeds=SeedTree(8))
    # Probes concentrate in big ISPs...
    assert platform.big_isp_probe_fraction() > 0.5
    # ...so coverage of the full edge-AS population has gaps, while the
    # speed test catalog reaches far more networks.
    edge_asns = scenario.internet.edge_asns
    probe_coverage = platform.coverage_of(edge_asns)
    catalog_asns = {s.asn for s in scenario.catalog}
    catalog_coverage = sum(1 for a in edge_asns if a in catalog_asns) \
        / len(edge_asns)
    assert probe_coverage < catalog_coverage

    # Platform-wide daily budget is tiny next to CLASP's hourly cadence.
    assert platform.max_daily_tests() < 120 * 24


def test_edge_platform_validation(small_scenario):
    from repro.tools.edgeplatform import EdgePlatform
    with pytest.raises(MeasurementError):
        EdgePlatform(small_scenario.internet, n_probes=0)
