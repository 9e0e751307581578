"""End-to-end path metrics composition."""

import pytest

from repro.netsim.linkstate import LinkStateEvaluator
from repro.netsim.pathmodel import PathPerformanceModel
from repro.netsim.routing import Router
from repro.netsim.traffic import DiurnalProfile, UtilizationModel
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START


@pytest.fixture()
def model(mini_world, seeds):
    util = UtilizationModel(seeds, CAMPAIGN_START)
    # Deterministic quiet profiles everywhere.
    for link in mini_world.topology.links.values():
        util.set_profile_both(link.link_id,
                              DiurnalProfile(base=0.3, noise_sigma=0.0))
    evaluator = LinkStateEvaluator(util)
    return PathPerformanceModel(mini_world.topology, evaluator)


@pytest.fixture()
def router(mini_world):
    return Router(mini_world.topology, cloud_asn=mini_world.cloud_asn)


def test_symmetric_rtt(model, router, mini_world):
    pops = mini_world.pops
    route = router.route(pops["cloud-west"], pops["ispa-east"])
    metrics = model.evaluate(route, CAMPAIGN_START)
    # RTT must be at least twice the one-way propagation delay.
    one_way = route.propagation_delay_ms(mini_world.topology)
    assert metrics.rtt_ms >= 2 * one_way
    assert metrics.rtt_ms < 2 * one_way + 20.0  # bounded queueing


def test_asymmetric_reverse_route(model, router, mini_world):
    pops = mini_world.pops
    fwd = router.route(pops["ispa-east"], pops["cloud-west"])
    rev = router.route(pops["cloud-west"], pops["ispa-east"])
    metrics = model.evaluate(fwd, CAMPAIGN_START, reverse_route=rev)
    fwd_prop = fwd.propagation_delay_ms(mini_world.topology)
    rev_prop = rev.propagation_delay_ms(mini_world.topology)
    assert metrics.rtt_ms >= fwd_prop + rev_prop


def test_loss_composes_along_path(model, router, mini_world):
    pops = mini_world.pops
    long_route = router.route(pops["cloud-west"], pops["ispb-south"])
    short_route = router.route(pops["cloud-west"], pops["ispa-west"])
    long_metrics = model.evaluate(long_route, CAMPAIGN_START)
    short_metrics = model.evaluate(short_route, CAMPAIGN_START)
    assert long_metrics.loss_rate > short_metrics.loss_rate
    assert 0.0 <= long_metrics.loss_rate < 0.01


def test_avail_is_bottleneck_min(model, router, mini_world):
    pops = mini_world.pops
    route = router.route(pops["cloud-west"], pops["ispa-east"])
    metrics = model.evaluate(route, CAMPAIGN_START)
    assert metrics.avail_mbps == pytest.approx(
        min(o.residual_mbps for o in metrics.forward))
    assert metrics.bottleneck.residual_mbps == metrics.avail_mbps


def test_congested_flag(model, router, mini_world, seeds):
    pops = mini_world.pops
    util = model.evaluator.utilization_model
    link = mini_world.topology.link(mini_world.links["peer-aw"])
    util.set_profile(link.link_id, 1,
                     DiurnalProfile(base=1.2, noise_sigma=0.0))
    route = router.route(pops["ispa-west"], pops["cloud-west"])
    metrics = model.evaluate(route, CAMPAIGN_START)
    assert metrics.congested
    assert metrics.max_forward_utilization >= 1.0
    assert metrics.loss_rate > 0.1


def test_burst_loss_separation(model, router, mini_world):
    pops = mini_world.pops
    link = mini_world.topology.link(mini_world.links["peer-aw"])
    link.burst_loss = 0.10
    route = router.route(pops["ispa-west"], pops["cloud-west"])
    metrics = model.evaluate(route, CAMPAIGN_START)
    assert metrics.burst_loss_rate == pytest.approx(0.10)
    # Measured loss includes the burst component...
    assert metrics.measured_loss_rate >= 0.10
    # ...but the TCP-effective loss barely moves.
    assert metrics.tcp_effective_loss_rate < metrics.loss_rate + 0.01
