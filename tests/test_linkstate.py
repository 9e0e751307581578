"""Link-state evaluation: residual bandwidth, loss, queueing delay."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.linkstate import LinkStateEvaluator
from repro.netsim.topology import LinkKind

from .traffic_profiles import evening_profile

utils = st.floats(min_value=0.0, max_value=2.5)
kinds = st.sampled_from(list(LinkKind))


def test_residual_below_saturation_is_free_capacity():
    assert LinkStateEvaluator.residual_mbps(1000.0, 0.3) == \
        pytest.approx(700.0)
    assert LinkStateEvaluator.residual_mbps(1000.0, 0.0) == \
        pytest.approx(1000.0)


def test_residual_contested_floor_when_saturated():
    # At and beyond saturation an aggressive test still wins a small,
    # shrinking share.
    at_cap = LinkStateEvaluator.residual_mbps(1000.0, 1.0)
    over = LinkStateEvaluator.residual_mbps(1000.0, 1.5)
    assert 0 < over < at_cap
    assert at_cap < 200.0


def test_residual_validation():
    with pytest.raises(ValueError):
        LinkStateEvaluator.residual_mbps(0.0, 0.5)
    with pytest.raises(ValueError):
        LinkStateEvaluator.residual_mbps(100.0, -0.1)


@given(utils)
def test_residual_positive_property(u):
    assert LinkStateEvaluator.residual_mbps(1000.0, u) > 0.0


@given(st.floats(min_value=0, max_value=2.4), kinds)
def test_loss_monotone_in_utilization(u, kind):
    lo = LinkStateEvaluator.loss_rate(u, kind)
    hi = LinkStateEvaluator.loss_rate(u + 0.1, kind)
    assert hi >= lo - 1e-15


def test_loss_regimes():
    floor = LinkStateEvaluator.loss_rate(0.0, LinkKind.ACCESS)
    quiet = LinkStateEvaluator.loss_rate(0.5, LinkKind.ACCESS)
    busy = LinkStateEvaluator.loss_rate(0.97, LinkKind.ACCESS)
    over = LinkStateEvaluator.loss_rate(1.3, LinkKind.ACCESS)
    assert floor < 1e-3
    assert quiet < 1e-3
    assert 1e-3 < busy < 0.05
    # Overload: the structural overflow fraction (~0.23) dominates.
    assert over == pytest.approx((1.3 - 1.0) / 1.3, abs=0.02)


def test_loss_capped():
    assert LinkStateEvaluator.loss_rate(50.0, LinkKind.ACCESS) <= 0.9


def test_loss_validation():
    with pytest.raises(ValueError):
        LinkStateEvaluator.loss_rate(-0.1, LinkKind.ACCESS)


@given(st.floats(min_value=0, max_value=2.4), kinds)
def test_queue_delay_monotone(u, kind):
    lo = LinkStateEvaluator.queue_delay_ms(u, kind)
    hi = LinkStateEvaluator.queue_delay_ms(u + 0.1, kind)
    assert hi >= lo - 1e-12


def test_queue_delay_capped_at_buffer():
    deep = LinkStateEvaluator.queue_delay_ms(1.4, LinkKind.ACCESS)
    assert deep == 60.0  # the access buffer ceiling
    shallow = LinkStateEvaluator.queue_delay_ms(0.2, LinkKind.BACKBONE)
    assert shallow < 0.1


def test_observe_roundtrip(mini_world, seeds):
    from repro.netsim.traffic import DiurnalProfile, UtilizationModel
    from repro.simclock import CAMPAIGN_START
    topo = mini_world.topology
    model = UtilizationModel(seeds, CAMPAIGN_START)
    link = topo.link(mini_world.links["peer-aw"])
    model.set_profile(link.link_id, 1,
                      DiurnalProfile(base=0.4, noise_sigma=0.0))
    evaluator = LinkStateEvaluator(model)
    obs = evaluator.observe(link, 1, CAMPAIGN_START)
    assert obs.link_id == link.link_id
    assert obs.direction == 1
    assert obs.utilization == pytest.approx(0.4, abs=0.15)
    assert not obs.saturated
    assert obs.residual_mbps <= link.capacity_mbps
    assert obs.burst_loss == 0.0


def test_observe_reports_burst_loss(mini_world, seeds):
    from repro.netsim.traffic import UtilizationModel
    from repro.simclock import CAMPAIGN_START
    topo = mini_world.topology
    link = topo.link(mini_world.links["peer-aw"])
    link.burst_loss = 0.12
    evaluator = LinkStateEvaluator(UtilizationModel(seeds, CAMPAIGN_START))
    obs = evaluator.observe(link, 0, CAMPAIGN_START)
    assert obs.burst_loss == 0.12


# ----------------------------------------------------------------------
# the per-instant observation memo


def _memo_rig(mini_world, seeds):
    from repro.netsim.traffic import UtilizationModel
    from repro.simclock import CAMPAIGN_START
    model = UtilizationModel(seeds, CAMPAIGN_START)
    links = [mini_world.topology.link(lid)
             for lid in sorted(mini_world.links.values())]
    for index, link in enumerate(links):
        model.set_profile(link.link_id, index % 2,
                          evening_profile())
    return model, links, float(CAMPAIGN_START)


def _flap(link_id, direction, ts):
    return 1.4 if (link_id + direction + int(ts // 3600)) % 4 == 0 else None


def test_observe_memo_matches_fresh_evaluation_call_for_call(
        mini_world, seeds):
    import random
    model, links, start = _memo_rig(mini_world, seeds)
    evaluator = LinkStateEvaluator(model, flap_hook=_flap)
    draw = random.Random(17)
    instants = [start + 3600.0 * h + 60.0 * m
                for h in range(30) for m in (0, 7)]
    ts = instants[0]
    calls = 0
    for _ in range(3000):
        if draw.random() < 0.03:
            # Revisit an earlier instant now and then: the memo must
            # rebuild it rather than serve the previous instant.
            ts = draw.choice(instants)
        link = draw.choice(links)
        direction = draw.randrange(2)
        got = evaluator.observe(link, direction, ts)
        fresh = LinkStateEvaluator(model, flap_hook=_flap)
        assert got == fresh.observe(link, direction, ts)
        calls += 1
    hits, misses = evaluator.take_memo_counts()
    assert hits + misses == calls
    assert hits > misses > 0
    assert evaluator.take_memo_counts() == (0, 0)


def test_observe_memo_holds_one_instant(mini_world, seeds):
    model, links, start = _memo_rig(mini_world, seeds)
    evaluator = LinkStateEvaluator(model)
    link = links[0]
    evaluator.observe(link, 0, start)
    evaluator.observe(link, 0, start)
    later = evaluator.observe(link, 0, start + 7200.0)
    evaluator.observe(link, 0, start)
    assert evaluator.take_memo_counts() == (1, 3)
    assert later == LinkStateEvaluator(model).observe(link, 0, start + 7200.0)


def test_observe_memo_invalidated_by_flap_hook(mini_world, seeds):
    model, links, start = _memo_rig(mini_world, seeds)
    evaluator = LinkStateEvaluator(model)
    link = links[0]
    before = evaluator.observe(link, 0, start)
    evaluator.set_flap_hook(lambda lid, d, ts: 1.5)
    flapped = evaluator.observe(link, 0, start)
    assert flapped.utilization == 1.5 != before.utilization
    evaluator.set_flap_hook(None)
    assert evaluator.observe(link, 0, start) == before


def test_observe_memo_invalidated_by_profile_change(mini_world, seeds):
    from repro.netsim.traffic import DiurnalProfile
    model, links, start = _memo_rig(mini_world, seeds)
    evaluator = LinkStateEvaluator(model)
    link = links[0]
    before = evaluator.observe(link, 0, start)
    model.set_profile(link.link_id, 0,
                      DiurnalProfile(base=0.97, noise_sigma=0.0))
    after = evaluator.observe(link, 0, start)
    assert after.utilization == 0.97 != before.utilization
    assert after == LinkStateEvaluator(model).observe(link, 0, start)


def test_observe_memo_invalidated_by_capacity_change(mini_world, seeds):
    model, links, start = _memo_rig(mini_world, seeds)
    evaluator = LinkStateEvaluator(model)
    link = links[0]
    before = evaluator.observe(link, 1, start)
    # As the scenario builder squeezes a peering link after selection.
    link.capacity_mbps = before.capacity_mbps / 4.0
    after = evaluator.observe(link, 1, start)
    assert after.capacity_mbps == before.capacity_mbps / 4.0
    assert after == LinkStateEvaluator(model).observe(link, 1, start)
    link.burst_loss = 0.1
    lossy = evaluator.observe(link, 1, start)
    assert lossy.burst_loss == 0.1
    assert lossy == LinkStateEvaluator(model).observe(link, 1, start)
