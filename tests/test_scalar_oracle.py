"""Bit-for-bit oracles for the scalar link-observation path.

The reference bodies below are the straightforward forms of
:meth:`LinkStateEvaluator.observe`, :meth:`DiurnalProfile.mean_utilization`,
:meth:`DiurnalBump.value`, :func:`repro.simclock.is_weekend` and
:meth:`PathPerformanceModel.evaluate`: ``sum()`` over a generator,
builtin ``min``/``max``, per-kind dict lookups on every call, a
``datetime`` per weekday question, and a propagation sum per call.  The
product code computes the same floats with fewer calls; every test here
compares the two bit for bit (``float.hex``), so a reordered operation
fails by name instead of as a golden-digest mismatch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.netsim.linkstate import (_CONTESTED_SHARE, _FLOOR_LOSS,
                                    _LOSS_AT_CAPACITY, _LOSS_ONSET,
                                    _QUEUE_BASE_MS, _QUEUE_CAP_MS,
                                    _SUBONSET_COEF, LinkStateEvaluator)
from repro.netsim.pathmodel import PathPerformanceModel
from repro.netsim.routing import Router
from repro.netsim.topology import Link, LinkKind
from repro.netsim.traffic import DiurnalBump, DiurnalProfile, UtilizationModel
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START, is_weekend, utc_datetime
from repro.units import DAY, HOUR

from .traffic_profiles import daytime_profile, evening_profile

#: The UTC offsets the weekday grid sweeps, fractional ones included.
OFFSETS = (-9.5, 0.0, 5.5, 5.75, 13.75)


# ----------------------------------------------------------------------
# reference bodies


def oracle_is_weekend(ts, utc_offset_hours=0.0):
    when = utc_datetime(ts + utc_offset_hours * HOUR)
    return when.weekday() >= 5


def oracle_bump_value(bump, local_hour):
    delta = abs(local_hour - bump.center_hour)
    delta = min(delta, 24.0 - delta)
    if delta >= bump.width_hours:
        return 0.0
    return bump.amplitude * 0.5 * (
        1.0 + math.cos(math.pi * delta / bump.width_hours))


def oracle_mean_utilization(profile, ts):
    local = (ts / HOUR + profile.utc_offset_hours) % 24.0
    load = profile.base + sum(oracle_bump_value(b, local)
                              for b in profile.bumps)
    if oracle_is_weekend(ts, profile.utc_offset_hours):
        load *= profile.weekend_factor
    return max(0.0, load)


def oracle_utilization(model, link_id, direction, ts):
    profile = model.profile(link_id, direction)
    mean = oracle_mean_utilization(profile, ts)
    if profile.noise_sigma <= 0:
        return mean
    hour_idx = int((ts - model.origin_ts) // HOUR) % model.NOISE_HOURS
    noise = model.noise_array(link_id, direction, hour_idx + 1)
    return max(0.0, mean + float(noise[hour_idx]))


def oracle_residual(capacity_mbps, utilization):
    free = capacity_mbps * (1.0 - utilization)
    over = max(1.0, utilization)
    contested = capacity_mbps * _CONTESTED_SHARE / (over * over)
    return max(free, contested)


def oracle_loss(utilization, kind):
    floor = _FLOOR_LOSS[kind]
    u_sq = utilization * utilization
    burst = _SUBONSET_COEF * (u_sq * u_sq)
    if utilization <= _LOSS_ONSET:
        return floor + burst
    if utilization <= 1.0:
        ramp = (utilization - _LOSS_ONSET) / (1.0 - _LOSS_ONSET)
        return floor + burst + _LOSS_AT_CAPACITY * ramp * ramp
    overflow = (utilization - 1.0) / utilization
    return min(0.9, floor + burst + _LOSS_AT_CAPACITY + overflow)


def oracle_queue(utilization, kind):
    base = _QUEUE_BASE_MS[kind]
    cap = _QUEUE_CAP_MS[kind]
    u = min(utilization, 0.995)
    mm1 = base * u / (1.0 - u)
    if utilization >= 1.0:
        return cap
    return min(cap, mm1)


def oracle_observe(model, flap_hook, link, direction, ts):
    u = oracle_utilization(model, link.link_id, direction, ts)
    if flap_hook is not None:
        floor = flap_hook(link.link_id, direction, ts)
        if floor is not None:
            u = max(u, floor)
    return (link.link_id, direction, link.capacity_mbps, u,
            oracle_residual(link.capacity_mbps, u), oracle_loss(u, link.kind),
            oracle_queue(u, link.kind), link.burst_loss)


def oracle_rtt(topology, fwd_obs, rev_obs, forward_route, reverse_route):
    rev_route = forward_route if reverse_route is None else reverse_route
    return (forward_route.propagation_delay_ms(topology)
            + rev_route.propagation_delay_ms(topology)
            + sum(o.queue_delay_ms for o in fwd_obs)
            + sum(o.queue_delay_ms for o in rev_obs))


def _bits(values):
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


# ----------------------------------------------------------------------
# is_weekend and mean_utilization


def _midnight_grid(offset):
    """Every local midnight of a year at *offset*, and instants within a
    second of it on both sides (the datetime fallback's band and just
    outside it)."""
    first = (CAMPAIGN_START // DAY) * DAY - offset * HOUR
    midnights = (first + np.arange(0, 366) * DAY).tolist()
    steps = (-1.5, -1.0, -0.999999, -0.5, -1e-6, 0.0, 1e-6, 0.5,
             0.999999, 1.0, 1.5)
    # One ulp either side: datetime's microsecond rounding carries
    # these across midnight.
    ulps = [math.nextafter(m, side) for m in midnights
            for side in (-math.inf, math.inf)]
    return [m + step for m in midnights for step in steps] + ulps


@pytest.mark.parametrize("offset", OFFSETS)
def test_is_weekend_matches_datetime_at_every_midnight(offset):
    for ts in _midnight_grid(offset):
        assert is_weekend(ts, offset) is oracle_is_weekend(ts, offset), ts


def test_is_weekend_matches_datetime_off_the_edges():
    rng = np.random.default_rng(1)
    for ts in (CAMPAIGN_START + rng.uniform(-30 * DAY, 400 * DAY, 5000)
               ).tolist():
        for offset in OFFSETS:
            assert is_weekend(ts, offset) is oracle_is_weekend(ts, offset)


def _profiles():
    return (
        DiurnalProfile.quiet(),
        evening_profile(utc_offset_hours=-9.5),
        daytime_profile(utc_offset_hours=5.75),
        DiurnalProfile(base=0.3, bumps=(), utc_offset_hours=13.75),
        # Bumps that wrap around local midnight, and one that cancels.
        DiurnalProfile(base=0.2, bumps=(DiurnalBump(23.5, 3.0, 0.4),
                                        DiurnalBump(0.5, 2.0, 0.3),
                                        DiurnalBump(12.0, 5.0, -0.1)),
                       weekend_factor=1.3, utc_offset_hours=5.5),
        # Three overlapping bumps: their sum depends on the order.
        DiurnalProfile(base=0.1, bumps=(DiurnalBump(12.0, 6.0, 0.31),
                                        DiurnalBump(13.0, 6.0, 0.27),
                                        DiurnalBump(14.5, 6.0, 0.23)),
                       utc_offset_hours=0.0),
    )


@pytest.mark.parametrize("profile", _profiles())
def test_mean_utilization_matches_reference(profile):
    rng = np.random.default_rng(2)
    offset = profile.utc_offset_hours
    grid = (_midnight_grid(offset)[::7]
            + (CAMPAIGN_START + rng.uniform(0.0, 30 * DAY, 3000)).tolist())
    for ts in grid:
        got = profile.mean_utilization(ts)
        assert got.hex() == oracle_mean_utilization(profile, ts).hex(), ts
    for bump in profile.bumps:
        for hour in np.linspace(0.0, 24.0, 481).tolist():
            assert (bump.value(hour).hex()
                    == oracle_bump_value(bump, hour).hex())


# ----------------------------------------------------------------------
# LinkStateEvaluator.observe


def _flap_hook(link_id, direction, ts):
    """Flaps a third of the link-direction-hours, deterministically."""
    if (link_id + direction + int(ts // HOUR)) % 3 == 0:
        return 2.5
    return None


def _world():
    """One link per kind and per utilization regime, both directions.

    Noise-free profiles pin the utilization at exactly 0, 0.92 (the loss
    onset), 1.0 and 1.3 (weekend factor 1, so weekends do not move it);
    noisy ones sweep the rest.
    """
    model = UtilizationModel(SeedTree(17), float(CAMPAIGN_START))
    links = []
    pinned = (0.0, 0.92, 1.0, 1.3)
    for k, kind in enumerate(LinkKind):
        for j, base in enumerate(pinned):
            link = Link(link_id=len(links), kind=kind, pop_a=1000 + k,
                        pop_b=2000 + j, capacity_mbps=1000.0 * (k + 1),
                        delay_ms=1.0, burst_loss=0.01 * j)
            model.set_profile_both(link.link_id, DiurnalProfile(
                base=base, weekend_factor=1.0, noise_sigma=0.0))
            links.append(link)
        for j, profile in enumerate(_profiles()):
            link = Link(link_id=len(links), kind=kind, pop_a=3000 + k,
                        pop_b=4000 + j, capacity_mbps=250.0 * (j + 1),
                        delay_ms=2.0)
            model.set_profile_both(link.link_id, profile, reverse=(
                evening_profile(utc_offset_hours=profile.utc_offset_hours)))
            links.append(link)
    return model, links


@pytest.mark.parametrize("hook", [None, _flap_hook], ids=["plain", "flaps"])
def test_observe_matches_reference(hook):
    model, links = _world()
    evaluator = LinkStateEvaluator(model, flap_hook=hook)
    rng = np.random.default_rng(3)
    times = sorted((CAMPAIGN_START + rng.uniform(0.0, 9 * DAY, 120)).tolist()
                   + _midnight_grid(0.0)[:44])
    seen_u = set()
    for ts in times:
        for link in links:
            for direction in (0, 1):
                want = oracle_observe(model, hook, link, direction, ts)
                got = evaluator.observe(link, direction, ts)
                assert _bits(got) == _bits(want), (link.link_id, ts)
                # A memo hit returns the same record.
                assert evaluator.observe(link, direction, ts) is got
                assert got.saturated is (got.utilization >= 1.0)
                seen_u.add(got.utilization)
    assert {0.0, 0.92, 1.0, 1.3} <= seen_u
    if hook is not None:
        assert 2.5 in seen_u


def test_observe_recomputes_a_link_changed_after_it_was_memoized():
    model, links = _world()
    evaluator = LinkStateEvaluator(model)
    ts = float(CAMPAIGN_START) + 5 * HOUR + 17.0
    link = links[1]
    first = evaluator.observe(link, 0, ts)
    link.capacity_mbps = 40.0
    second = evaluator.observe(link, 0, ts)
    assert second.capacity_mbps == 40.0
    assert _bits(second) == _bits(oracle_observe(model, None, link, 0, ts))
    link.burst_loss = 0.2
    third = evaluator.observe(link, 0, ts)
    assert third.burst_loss == 0.2
    assert _bits(third) == _bits(oracle_observe(model, None, link, 0, ts))
    assert first.residual_mbps != second.residual_mbps
    # A different Link object reusing the id (another kind) reads its
    # own kind's constants.
    other = Link(link_id=link.link_id, kind=LinkKind.LAN, pop_a=1,
                 pop_b=2, capacity_mbps=40.0, delay_ms=1.0)
    assert other.kind is not link.kind
    got = evaluator.observe(other, 1, ts)
    assert _bits(got) == _bits(oracle_observe(model, None, other, 1, ts))


def test_static_formulas_match_reference():
    for u in np.concatenate([np.linspace(0.0, 2.5, 2501),
                             [0.92, 0.995, 0.9950001, 1.0]]).tolist():
        for kind in LinkKind:
            assert (LinkStateEvaluator.loss_rate(u, kind).hex()
                    == oracle_loss(u, kind).hex())
            assert (LinkStateEvaluator.queue_delay_ms(u, kind).hex()
                    == oracle_queue(u, kind).hex())
        assert (LinkStateEvaluator.residual_mbps(1000.0, u).hex()
                == oracle_residual(1000.0, u).hex())


# ----------------------------------------------------------------------
# PathPerformanceModel.evaluate


def test_evaluate_rtt_matches_per_call_propagation(mini_world):
    model = UtilizationModel(SeedTree(5), float(CAMPAIGN_START))
    for link in mini_world.topology.links.values():
        model.set_profile_both(link.link_id,
                               evening_profile(utc_offset_hours=-8.0))
    path_model = PathPerformanceModel(mini_world.topology,
                                      LinkStateEvaluator(model))
    router = Router(mini_world.topology, cloud_asn=mini_world.cloud_asn)
    pops = mini_world.pops
    forward = router.route(pops["cloud-west"], pops["ispa-east"])
    reverse = router.route(pops["ispa-east"], pops["cloud-west"])
    for hour in range(48):
        ts = float(CAMPAIGN_START) + hour * HOUR + 61.0
        for back in (None, reverse):
            metrics = path_model.evaluate(forward, ts, back)
            want = oracle_rtt(mini_world.topology, metrics.forward,
                              metrics.reverse, forward, back)
            assert metrics.rtt_ms.hex() == want.hex()
