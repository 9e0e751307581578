"""Server selection: topology-based and differential-based."""

import pytest

from repro.cloud.tiers import NetworkTier
from repro.core.selection.differential import (
    DifferentialSelector,
    LatencyClass,
)
from repro.errors import SelectionError
from repro.experiments.scenario import build_scenario
from repro.netsim.traffic import UtilizationModel
from repro.simclock import CAMPAIGN_START
from repro.tools.speedchecker import TupleMedian


@pytest.fixture(scope="module")
def topo_selection(small_scenario):
    return small_scenario.clasp.select_topology_servers("us-west1")


def test_topology_selection_structure(small_scenario, topo_selection):
    selection = topo_selection
    assert selection.n_interdomain_links > 50
    assert 0 < selection.n_links_traversed <= len(selection.server_links)
    assert selection.selected
    assert len(selection.selected) <= selection.n_links_traversed
    # One server per interconnection; ids unique.
    ids = selection.selected_ids()
    assert len(set(ids)) == len(ids)


def test_topology_selected_servers_match_their_links(small_scenario,
                                                     topo_selection):
    for chosen in topo_selection.selected[:20]:
        assert topo_selection.server_links[chosen.server_id] is not None
        assert chosen.far_ip in topo_selection.groups
        assert chosen.server_id in topo_selection.groups[chosen.far_ip]
        assert chosen.as_path_length >= 2
        assert chosen.rtt_ms > 0


def test_topology_selection_prefers_short_paths(small_scenario,
                                                topo_selection):
    """Within each router group, nothing beats the chosen server on
    (AS-path length, RTT)."""
    selection = topo_selection
    per_server = {}
    for chosen in selection.selected:
        per_server[chosen.server_id] = chosen
    for root, ids in list(selection.router_groups.items())[:30]:
        chosen = [c for c in selection.selected if c.server_id in ids]
        assert len(chosen) == 1


def test_topology_selection_orders_by_rtt(topo_selection):
    rtts = [s.rtt_ms for s in topo_selection.selected]
    assert rtts == sorted(rtts)


def test_topology_selection_coverage_math(topo_selection):
    ids = topo_selection.selected_ids()
    covered = topo_selection.links_covered_by(ids)
    assert covered == len(topo_selection.selected)
    assert topo_selection.coverage(ids) == pytest.approx(
        covered / topo_selection.n_links_traversed)
    # A budget-capped subset covers fewer links.
    subset = topo_selection.selected_ids(budget=5)
    assert topo_selection.links_covered_by(subset) == 5


def test_topology_selection_cached(small_scenario, topo_selection):
    again = small_scenario.clasp.select_topology_servers("us-west1")
    assert again is topo_selection


def test_shared_interconnection_fraction(topo_selection):
    assert 0.0 <= topo_selection.shared_interconnection_fraction < 1.0


# ----------------------------------------------------------------------
# differential


def _median(city, asn, region, tier, rtt, n=150):
    return TupleMedian(asn=asn, city_key=city, region=region, tier=tier,
                       median_rtt_ms=rtt, n_samples=n)


def test_selection_draws_noise_only_up_to_the_hour_it_reads():
    """The pilot scan probes at one instant, hour 0 of the noise, so no
    link direction may hold more deviates than the larger of one day
    and twice the hours read: drawing a year per link would fail."""
    scenario = build_scenario(seed=11, scale=0.05)
    clasp = scenario.clasp
    clasp.select_topology_servers("us-west1")
    model = clasp.platform.evaluator.utilization_model
    held = [len(noise) for noise in model._noise.values()]
    hours_read = 1
    assert len(held) > 100
    assert max(held) <= max(UtilizationModel.FIRST_DRAW_HOURS,
                            2 * hours_read)


def test_classify_thresholds(small_scenario):
    selector = DifferentialSelector(small_scenario.catalog,
                                    small_scenario.clasp.prefix2as)
    medians = [
        # |delta| >= 50: premium lower.
        _median("A, US", 1, "r", NetworkTier.PREMIUM, 40.0),
        _median("A, US", 1, "r", NetworkTier.STANDARD, 95.0),
        # |delta| < 10: comparable.
        _median("B, US", 2, "r", NetworkTier.PREMIUM, 50.0),
        _median("B, US", 2, "r", NetworkTier.STANDARD, 55.0),
        # standard lower by 60.
        _median("C, US", 3, "r", NetworkTier.PREMIUM, 120.0),
        _median("C, US", 3, "r", NetworkTier.STANDARD, 60.0),
        # 20 ms apart: neither condition -> dropped.
        _median("D, US", 4, "r", NetworkTier.PREMIUM, 50.0),
        _median("D, US", 4, "r", NetworkTier.STANDARD, 70.0),
        # too few samples -> dropped.
        _median("E, US", 5, "r", NetworkTier.PREMIUM, 10.0, n=50),
        _median("E, US", 5, "r", NetworkTier.STANDARD, 99.0, n=50),
        # missing standard tier -> dropped.
        _median("F, US", 6, "r", NetworkTier.PREMIUM, 10.0),
    ]
    candidates = selector.classify(medians, "r")
    classes = {c.asn: c.latency_class for c in candidates}
    assert classes == {
        1: LatencyClass.PREMIUM_LOWER,
        2: LatencyClass.COMPARABLE,
        3: LatencyClass.STANDARD_LOWER,
    }
    assert candidates[0].delta_ms == pytest.approx(55.0)


def test_differential_selection_end_to_end(small_scenario):
    scenario = small_scenario
    selection = scenario.clasp.select_differential_servers(
        "europe-west1", target_count=10)
    assert selection.candidates
    assert 1 <= len(selection.selected) <= 10
    # One server per <city, AS> tuple.
    tuples = {(c.city_key, c.asn) for _s, c in selection.selected}
    assert len(tuples) == len(selection.selected)
    # Server AS (via prefix2as) matches the candidate tuple's AS.
    for server, candidate in selection.selected:
        assert scenario.clasp.prefix2as.lookup(server.ip) == candidate.asn
        assert server.city_key == candidate.city_key
        assert candidate.latency_class is not None


def test_differential_selection_cached_per_target_count(small_scenario):
    """A second target count selects afresh; a repeat is the cache."""
    clasp = small_scenario.clasp
    two = clasp.select_differential_servers("us-central1", target_count=2)
    six = clasp.select_differential_servers("us-central1", target_count=6)
    assert len(two.selected) == 2
    assert len(six.selected) == 6
    assert clasp.select_differential_servers(
        "us-central1", target_count=2) is two


def test_differential_selection_validation(small_scenario):
    selector = DifferentialSelector(small_scenario.catalog,
                                    small_scenario.clasp.prefix2as)
    with pytest.raises(SelectionError):
        selector.select([], "r", target_count=0)
    empty = selector.select([], "r", target_count=5)
    assert empty.selected == []
