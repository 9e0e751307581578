"""End-to-end integration: the full CLASP loop on a small world.

These tests run the complete methodology - pilot scan, selection,
deployment, a multi-day hourly campaign, congestion detection - and
check the cross-module invariants the paper's findings rest on.
"""

import numpy as np
import pytest

from repro.cloud.tiers import NetworkTier
from repro.core.congestion import detect, threshold_sweep
from repro.simclock import CAMPAIGN_START
from repro.units import HOUR


@pytest.fixture(scope="module")
def full_run(small_scenario):
    clasp = small_scenario.clasp
    selection = clasp.select_topology_servers("us-west1")
    plan = clasp.deploy_topology("us-west1", selection,
                                 budget_servers=34)
    dataset = clasp.run_campaign([plan], days=4)
    return small_scenario, selection, plan, dataset


def test_selection_to_campaign_consistency(full_run):
    scenario, selection, plan, dataset = full_run
    assert len(plan.server_ids) == 34
    assert set(plan.server_ids) <= set(selection.selected_ids())
    measured = {pair[1] for pair in dataset.pairs()}
    assert measured == set(plan.server_ids)


def test_hourly_cadence(full_run):
    _scenario, _selection, plan, dataset = full_run
    for pair in dataset.pairs()[:10]:
        series = dataset.table.series(pair)
        hours = np.unique((series["ts"] // HOUR).astype(int))
        # At most one sample per hour; nearly every hour covered.
        assert series["ts"].size == hours.size
        assert hours.size >= 4 * 24 - 4


def test_throughput_within_physical_caps(full_run):
    scenario, _selection, _plan, dataset = full_run
    for pair in dataset.pairs():
        series = dataset.table.series(pair)
        server = scenario.catalog.get(pair[1])
        assert series["download"].max() <= 1000.0
        # Reported values are rounded to 0.01 Mbps by the web UI.
        assert series["download"].max() <= \
            server.effective_cap_mbps + 0.01
        assert series["upload"].max() <= 100.0
        assert series["latency"].min() > 0


def test_congestion_detection_finds_story_networks(full_run):
    scenario, _selection, plan, dataset = full_run
    report = detect(dataset)
    congested_asns = {dataset.server_meta(pair[1]).asn
                      for pair in report.congested_pairs()}
    # At least one of the built-in congestion stories (or assigned
    # congested ISPs) shows up among detected servers.
    planted = set(scenario.internet.congested_asns)
    measured_asns = {dataset.server_meta(sid).asn
                     for sid in plan.server_ids}
    if planted & measured_asns:
        assert congested_asns & planted


def test_congestion_events_happen_at_local_peaks(full_run):
    """Detected events must concentrate in daytime/evening local hours,
    because that is when the planted profiles overload."""
    _scenario, _selection, _plan, dataset = full_run
    report = detect(dataset)
    if not report.events:
        pytest.skip("no events in this small sample")
    hours = np.array([e.local_hour for e in report.events])
    # Overnight (0-6 local) should hold a clear minority of events.
    overnight = ((hours >= 0) & (hours < 6)).mean()
    assert overnight < 0.35


def test_threshold_sweep_consistency(full_run):
    _scenario, _selection, _plan, dataset = full_run
    hs, day_frac, hour_frac = threshold_sweep(
        dataset, np.array([0.25, 0.5, 0.75]))
    report = detect(dataset, threshold=0.5)
    assert day_frac[1] == pytest.approx(report.congested_day_fraction)
    assert hour_frac[1] == pytest.approx(report.congested_hour_fraction)


def test_billing_tracks_whole_run(full_run):
    scenario, _selection, _plan, _dataset = full_run
    spend = scenario.clasp.platform.costs.spend
    assert spend["vm_hours"] > 0
    assert spend["egress"] > 0


def test_differential_campaign_pairs(small_scenario):
    scenario = small_scenario
    clasp = scenario.clasp
    selection = clasp.select_differential_servers(
        "europe-west1", target_count=6)
    if not selection.selected:
        pytest.skip("no differential candidates at this scale")
    plan = clasp.deploy_differential("europe-west1", selection)
    dataset = clasp.run_campaign([plan], days=2)
    prem = dataset.pairs(tier=NetworkTier.PREMIUM)
    std = dataset.pairs(tier=NetworkTier.STANDARD)
    assert len(prem) == len(std) == len(selection.selected)
    from repro.core.analysis import tier_comparison
    comparison = tier_comparison(dataset, "europe-west1")
    assert comparison.n_matched_hours > 0
