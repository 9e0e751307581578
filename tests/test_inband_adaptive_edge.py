"""Edge-platform motivation: probe coverage vs the speed test catalog."""

import pytest

from repro.errors import MeasurementError
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.units import DAY


def test_edge_platform_coverage_gap(small_scenario):
    from repro.tools.edgeplatform import EdgePlatform, QuotaExceeded
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

    # Throughput is quota-limited and access-capped.
    probe = platform.probes[0]
    rate = platform.measure_throughput(probe, float(CAMPAIGN_START),
                                       path_capacity_mbps=10_000.0)
    assert rate <= probe.access_mbps
    for _ in range(probe.daily_quota - 1):
        platform.measure_throughput(probe, float(CAMPAIGN_START), 1e4)
    with pytest.raises(QuotaExceeded):
        platform.measure_throughput(probe, float(CAMPAIGN_START), 1e4)
    # The next day the quota resets.
    platform.measure_throughput(probe, float(CAMPAIGN_START + DAY), 1e4)
    # Platform-wide daily budget is tiny next to CLASP's hourly cadence.
    assert platform.max_daily_tests() < 120 * 24


def test_edge_platform_validation(small_scenario):
    from repro.tools.edgeplatform import EdgePlatform
    with pytest.raises(MeasurementError):
        EdgePlatform(small_scenario.internet, n_probes=0)
