"""Campaign runner and dataset."""

import numpy as np
import pytest

from repro.cloud.tiers import NetworkTier
from repro.core.campaign import LaneExecutor
from repro.errors import ValidationError
from repro.simclock import CAMPAIGN_START
from repro.units import HOUR


@pytest.fixture(scope="module")
def campaign_rig(small_scenario, deploy_us_plan):
    """One deployed region + a 2-day campaign, shared by the tests."""
    clasp = small_scenario.clasp
    plan = deploy_us_plan("us-east4", 12)
    cost_before = clasp.platform.costs.total_usd
    dataset = clasp.run_campaign([plan], days=2)
    return small_scenario, plan, dataset, cost_before


def test_run_campaign_validates_shape(campaign_rig, monkeypatch):
    """``days`` below 1 and a start off the hour fail on both paths
    before any lane steps and before any charge is made."""
    scenario, plan, _dataset, _cost = campaign_rig
    clasp = scenario.clasp
    steps = []
    monkeypatch.setattr(LaneExecutor, "step",
                        lambda self, lane, hour_start: steps.append(lane))
    spent = clasp.total_cost_usd()
    for batch in (False, True):
        for days, start_ts in ((0, float(CAMPAIGN_START)),
                               (1, float(CAMPAIGN_START) + 7)):
            with pytest.raises(ValidationError):
                clasp.run_campaign([plan], days=days, start_ts=start_ts,
                                   batch=batch)
    assert steps == []
    assert clasp.total_cost_usd() == spent


def test_campaign_produces_hourly_records(campaign_rig):
    scenario, plan, dataset, _cost = campaign_rig
    n_servers = len(plan.server_ids)
    expected = n_servers * 48
    # A few tests may fail outright; nearly all must land.
    assert dataset.completed_tests >= expected * 0.99
    assert dataset.completed_tests + dataset.failed_tests == expected
    assert len(dataset) == dataset.completed_tests


def test_campaign_metadata_registered(campaign_rig):
    scenario, plan, dataset, _cost = campaign_rig
    for server_id in plan.server_ids:
        meta = dataset.server_meta(server_id)
        server = scenario.catalog.get(server_id)
        assert meta.asn == server.asn
        assert meta.city_key == server.city_key
    with pytest.raises(KeyError):
        dataset.server_meta("missing-id")


def test_campaign_series_shape(campaign_rig):
    scenario, plan, dataset, _cost = campaign_rig
    pair = dataset.pairs(region="us-east4")[0]
    series = dataset.table.series(pair)
    assert series["ts"].size >= 46
    assert np.all(np.diff(series["ts"]) > 0)
    # One test per hour per server.
    hours = (series["ts"] // HOUR).astype(int)
    assert len(np.unique(hours)) == hours.size


def test_campaign_bills_usage(campaign_rig):
    scenario, plan, dataset, cost_before = campaign_rig
    costs = scenario.clasp.platform.costs.spend
    assert costs["vm_hours"] > 0
    assert costs["egress"] > 0
    assert scenario.clasp.total_cost_usd() > cost_before


def test_campaign_uploads_artifacts(campaign_rig):
    _scenario, plan, _dataset, _cost = campaign_rig
    # One artefact bundle per VM-hour.
    assert len(plan.bucket) == len(plan.vms) * 48
    assert plan.bucket.total_bytes > 0


def test_dataset_pair_filters(campaign_rig):
    _scenario, plan, dataset, _cost = campaign_rig
    assert dataset.regions() == ["us-east4"]
    prem = dataset.pairs(tier=NetworkTier.PREMIUM)
    std = dataset.pairs(tier=NetworkTier.STANDARD)
    assert len(prem) == len(plan.server_ids)
    assert std == []
    assert dataset.n_days == 2


