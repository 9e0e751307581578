"""Speedchecker edge latency probing."""

import pytest

from repro.cloud.regions import PAPER_DIFFERENTIAL_REGIONS
from repro.cloud.tiers import NetworkTier
from repro.simclock import CAMPAIGN_START
from repro.tools.speedchecker import MAX_VPS


@pytest.fixture(scope="module")
def medians(small_scenario):
    return small_scenario.clasp.speedchecker_medians()


def test_vantage_points(small_scenario):
    checker = small_scenario.clasp.speedchecker
    vps = checker.vantage_points()
    assert vps
    assert len(vps) <= MAX_VPS
    # VPs are cached.
    assert checker.vantage_points() is vps
    for vp in vps[:10]:
        assert vp.asn in small_scenario.internet.access_isp_asns
        assert vp.last_mile_ms > 0


def test_medians_structure(small_scenario, medians):
    assert medians
    regions = {m.region for m in medians}
    assert regions == set(PAPER_DIFFERENTIAL_REGIONS)
    for m in medians[:50]:
        assert m.tier in (NetworkTier.PREMIUM, NetworkTier.STANDARD)
        assert m.median_rtt_ms > 0
        assert m.n_samples > 100  # the paper's cut


def test_both_tiers_measured_per_tuple(medians):
    by_tuple = {}
    for m in medians:
        by_tuple.setdefault((m.city_key, m.asn, m.region),
                            set()).add(m.tier)
    both = [k for k, tiers in by_tuple.items() if len(tiers) == 2]
    assert len(both) >= len(by_tuple) * 0.9


def test_tier_latency_differences_exist(medians):
    """The preliminary study must surface both large and small tier
    deltas, or the differential method has nothing to select."""
    deltas = []
    by_tuple = {}
    for m in medians:
        by_tuple.setdefault((m.city_key, m.asn, m.region), {})[m.tier] = m
    for tiers in by_tuple.values():
        if len(tiers) == 2:
            deltas.append(tiers[NetworkTier.STANDARD].median_rtt_ms
                          - tiers[NetworkTier.PREMIUM].median_rtt_ms)
    assert any(abs(d) >= 50 for d in deltas)
    assert any(abs(d) < 10 for d in deltas)


def test_probe_vms_cleaned_up(small_scenario, medians):
    platform = small_scenario.clasp.platform
    leftover = [vm for vm in platform.vms()
                if vm.name.startswith("speedchecker-")]
    assert leftover == []
