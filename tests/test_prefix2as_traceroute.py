"""Prefix-to-AS dataset and scamper traceroute on the mini world."""

import pytest

from repro.netsim.addressing import Prefix, parse_ip
from repro.netsim.routing import GraphMode, Router, TierPolicy
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.tools.prefix2as import build_prefix2as
from repro.tools import traceroute
from repro.tools.traceroute import Scamper


@pytest.fixture()
def rig(mini_world, monkeypatch):
    monkeypatch.setattr(traceroute, "NO_RESPONSE_RATE", 0.0)
    topo = mini_world.topology
    router = Router(topo, cloud_asn=mini_world.cloud_asn)
    p2a = build_prefix2as(topo)
    scamper = Scamper(topo, router, seeds=SeedTree(71))
    return mini_world, topo, router, p2a, scamper


def test_prefix2as_basic(rig):
    world, topo, _router, p2a, _sc = rig
    assert p2a.lookup(parse_ip("10.100.3.4")) == 100
    assert p2a.lookup(parse_ip("10.40.25.9")) == 400
    assert p2a.lookup(parse_ip("203.0.113.1")) is None
    # Interdomain interfaces map to the *address owner* (the cloud),
    # not the operator.
    assert p2a.lookup(parse_ip("10.100.8.2")) == 100
    assert len(p2a) > 5


def test_prefix2as_more_specific_wins(rig):
    world, topo, _router, p2a, _sc = rig
    # Another AS announces a /24 inside ISP Alpha's 10.40.0.0/16.
    p2a.add(Prefix.parse("10.40.24.0/24"), 999)
    assert p2a.lookup(parse_ip("10.40.24.5")) == 999
    assert p2a.lookup(parse_ip("10.40.99.5")) == 400


def test_traceroute_hops_are_ingress_interfaces(rig):
    world, topo, _router, _p2a, scamper = rig
    trace = scamper.trace(world.pops["cloud-west"],
                          world.pops["ispa-east"], CAMPAIGN_START,
                          first_as_policy=TierPolicy.HOT_POTATO)
    ips = trace.responding_ips()
    # Hot potato: first hop is ISP Alpha's west ingress on the peering
    # /30, then ISP Alpha's east router (its backbone ingress shows
    # the loopback since backbones are unnumbered).
    assert ips[0] == parse_ip("10.100.8.2")
    assert ips[-1] == topo.pop(world.pops["ispa-east"]).loopback_ip
    # RTTs increase along the path.
    rtts = [h.rtt_ms for h in trace.hops if h.rtt_ms is not None]
    assert all(a < b for a, b in zip(rtts, rtts[1:]))


def test_traceroute_to_ip_appends_destination(rig):
    world, topo, _router, _p2a, scamper = rig
    probe = parse_ip("10.50.24.1")
    trace = scamper.trace_to_ip(world.pops["cloud-west"], probe,
                                CAMPAIGN_START)
    assert trace is not None
    assert trace.dst_ip == probe
    assert trace.responding_ips()[-1] == probe
    # The far-side interface appears before the destination hop.
    assert parse_ip("10.100.8.10") in trace.responding_ips()


def test_traceroute_unrouted_ip(rig):
    world, _topo, _router, _p2a, scamper = rig
    assert scamper.trace_to_ip(world.pops["cloud-west"],
                               parse_ip("198.51.100.1"),
                               CAMPAIGN_START) is None


def test_traceroute_host_destination_not_duplicated(rig):
    world, topo, _router, _p2a, scamper = rig
    host = topo.add_host(400, world.pops["ispa-west"],
                         parse_ip("10.40.0.250"), 1000.0)
    trace = scamper.trace(world.pops["cloud-west"], host.pop_id,
                          CAMPAIGN_START, dst_ip=parse_ip("10.40.0.250"))
    ips = trace.responding_ips()
    assert ips.count(parse_ip("10.40.0.250")) == 1
    assert ips[-1] == parse_ip("10.40.0.250")


def test_no_response_rate(mini_world, monkeypatch):
    monkeypatch.setattr(traceroute, "NO_RESPONSE_RATE", 0.95)
    topo = mini_world.topology
    router = Router(topo, cloud_asn=100)
    lossy = Scamper(topo, router, seeds=SeedTree(72))
    trace = lossy.trace(mini_world.pops["cloud-west"],
                        mini_world.pops["ispb-south"], CAMPAIGN_START,
                        dst_ip=parse_ip("10.50.24.1"))
    # Middle hops vanish, but the destination always answers.
    assert trace.responding_ips()[-1] == parse_ip("10.50.24.1")
    assert any(h.ip is None for h in trace.hops)


def test_scamper_validation():
    """The calibrated non-response rate is a probability below one."""
    assert 0 <= traceroute.NO_RESPONSE_RATE < 1


def test_paris_flow_determinism(rig):
    world, _topo, _router, _p2a, scamper = rig
    t1 = scamper.trace(world.pops["cloud-west"], world.pops["ispb-south"],
                       CAMPAIGN_START, flow_id=9)
    t2 = scamper.trace(world.pops["cloud-west"], world.pops["ispb-south"],
                       CAMPAIGN_START, flow_id=9)
    assert [h.ip for h in t1.hops] == [h.ip for h in t2.hops]


def test_prefix2as_memo_sees_later_more_specific(rig):
    from repro.netsim.addressing import Prefix
    _world, _topo, _router, p2a, _sc = rig
    ip = parse_ip("10.40.77.9")
    assert p2a.lookup(ip) == 400
    assert p2a.lookup(ip) == 400
    p2a.add(Prefix.parse("10.40.77.0/24"), 900)
    assert p2a.lookup(ip) == 900
    assert p2a.lookup(parse_ip("10.40.78.9")) == 400
    assert p2a.take_memo_counts() == (1, 3)


def test_prefix2as_memo_never_caches_errors(rig):
    from repro.errors import AddressingError
    _world, _topo, _router, p2a, _sc = rig
    p2a.take_memo_counts()
    for _ in range(3):
        with pytest.raises(AddressingError):
            p2a.lookup(2 ** 32)
    assert p2a.take_memo_counts() == (0, 3)
    # Unrouted space memoizes its ``None`` answer like any other.
    assert p2a.lookup(parse_ip("203.0.113.1")) is None
    assert p2a.lookup(parse_ip("203.0.113.1")) is None
    assert p2a.take_memo_counts() == (1, 1)
