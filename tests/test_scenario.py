"""Scenario builder: stories, scaling, differential story surgery."""

import pytest

from repro.cloud.regions import (
    PAPER_DIFFERENTIAL_REGIONS,
    PAPER_TABLE1_REGIONS,
    PAPER_US_REGIONS,
)
from repro.experiments import scenario as scenario_module
from repro.experiments.scenario import (
    ScenarioConfig,
    apply_differential_story,
    build_scenario,
)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scale=0.001)
    with pytest.raises(ValueError):
        ScenarioConfig(scale=10.0)


def test_scenario_structure(small_scenario):
    scenario = small_scenario
    assert scenario.catalog is scenario.clasp.catalog
    assert len(scenario.catalog) > 50
    assert set(PAPER_TABLE1_REGIONS) <= set(PAPER_US_REGIONS)
    assert "europe-west1" in PAPER_DIFFERENTIAL_REGIONS


def test_stories_installed(small_scenario):
    scenario = small_scenario
    topo = scenario.internet.topology
    stories = scenario.story_asns
    for label in ("cox", "smarterbroadband", "unwired", "suddenlink",
                  "cogitant", "vortex", "joister", "telstar"):
        assert label in stories
    assert topo.as_of(stories["cox"]).name == "Coxcast Cable"
    assert "San Diego, US" in topo.as_of(stories["cox"]).pop_cities
    assert topo.as_of(stories["cogitant"]).name == \
        "Cogitant Communications"
    # Cox-analog servers exist in the catalog (ensure_asns).
    cox_servers = [s for s in scenario.catalog
                   if s.asn == stories["cox"]]
    assert len(cox_servers) >= 3
    # Telstar's cloud interconnect is pinned to the U.S. west coast.
    telstar_links = topo.interdomain_between(
        scenario.internet.cloud_asn, stories["telstar"])
    assert {r.city_key for r in telstar_links} == {"Los Angeles, US"}


def test_scenario_deterministic():
    a = build_scenario(seed=99, scale=0.05)
    b = build_scenario(seed=99, scale=0.05)
    assert a.internet.topology.stats() == b.internet.topology.stats()
    assert [s.server_id for s in a.catalog] == \
        [s.server_id for s in b.catalog]
    assert a.story_asns == b.story_asns


def test_scenario_without_stories():
    scenario = build_scenario(seed=99, scale=0.05, stories=False)
    assert scenario.story_asns == {}


def _link_state(scenario):
    """Every link's capacity, burst loss and both directions' profiles."""
    util = scenario.internet.utilization
    return {link_id: (link.capacity_mbps, link.burst_loss,
                      util.profile(link_id, 0), util.profile(link_id, 1))
            for link_id, link in scenario.internet.topology.links.items()}


def test_apply_differential_story(small_scenario, monkeypatch):
    # The story rewrites links, so it runs on a world of its own: the
    # session-scoped small_scenario (same seed and scale, so the same
    # servers and links) only supplies the selection.
    monkeypatch.setattr(scenario_module, "LOSSY_TARGETS", 3)
    before = _link_state(small_scenario)
    selection = small_scenario.clasp.select_differential_servers(
        "europe-west1", target_count=8)
    scenario = build_scenario(seed=11, scale=0.08)
    apply_differential_story(scenario, selection)
    topo = scenario.internet.topology
    lossy_links = 0
    warm_links = 0
    for server, _cand in selection.selected:
        for record in topo.interdomain_between(
                scenario.internet.cloud_asn, server.asn):
            profile = scenario.internet.utilization.profile(
                record.link_id, 1)
            if profile.base >= 0.7:
                warm_links += 1
            if topo.link(record.link_id).burst_loss > 0:
                lossy_links += 1
    assert warm_links > 0
    assert lossy_links > 0
    after = _link_state(small_scenario)
    assert {link_id: after[link_id] for link_id in before} == before
