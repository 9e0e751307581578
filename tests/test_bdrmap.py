"""bdrmap border inference: alias resolution + inference rules."""

import pytest

from repro.netsim.addressing import parse_ip
from repro.netsim.generator import GeneratorConfig, TopologyGenerator
from repro.netsim.routing import Router
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.tools import bdrmap as bdrmap_tool, traceroute
from repro.tools.bdrmap import AliasResolver, Bdrmap
from repro.tools.prefix2as import build_prefix2as
from repro.tools.traceroute import Scamper


@pytest.fixture()
def perfect_tools(monkeypatch):
    """Every router answers and alias resolution misses nothing."""
    monkeypatch.setattr(traceroute, "NO_RESPONSE_RATE", 0.0)
    monkeypatch.setattr(bdrmap_tool, "MISS_RATE", 0.0)
    monkeypatch.setattr(bdrmap_tool, "LOOPBACK_MISS_RATE", 0.0)


@pytest.fixture()
def mini_rig(mini_world, perfect_tools):
    topo = mini_world.topology
    router = Router(topo, cloud_asn=mini_world.cloud_asn)
    p2a = build_prefix2as(topo)
    scamper = Scamper(topo, router, seeds=SeedTree(81))
    resolver = AliasResolver(topo, seeds=SeedTree(82))
    bdrmap = Bdrmap(topo, scamper, p2a, mini_world.cloud_asn, resolver)
    return mini_world, topo, bdrmap


def test_alias_resolver_complete_at_zero_miss(mini_world, perfect_tools):
    topo = mini_world.topology
    resolver = AliasResolver(topo)
    aliases = resolver.resolve(parse_ip("10.100.8.2"))
    assert aliases == topo.aliases_of(parse_ip("10.100.8.2"))


def test_alias_resolver_deterministic(mini_world, monkeypatch):
    monkeypatch.setattr(bdrmap_tool, "MISS_RATE", 0.5)
    topo = mini_world.topology
    r1 = AliasResolver(topo, seeds=SeedTree(9))
    r2 = AliasResolver(topo, seeds=SeedTree(9))
    ip = parse_ip("10.100.8.2")
    assert r1.resolve(ip) == r2.resolve(ip)
    assert ip in r1.resolve(ip)


def test_alias_resolver_unknown_ip(mini_world):
    resolver = AliasResolver(mini_world.topology)
    assert resolver.resolve(parse_ip("198.51.100.1")) == \
        frozenset({parse_ip("198.51.100.1")})


def test_alias_resolver_validation():
    """The calibrated miss rates are probabilities below one."""
    assert 0 <= bdrmap_tool.MISS_RATE < 1
    assert 0 <= bdrmap_tool.LOOPBACK_MISS_RATE < 1


def test_mini_world_inference_exact(mini_rig):
    """With perfect aliases/responses, bdrmap finds exactly the cloud's
    borders, despite all of them being cloud-numbered."""
    world, topo, bdrmap = mini_rig
    result = bdrmap.run(world.pops["cloud-west"], CAMPAIGN_START,
                        flow_ids=(0, 1))
    truth = {r.far_ip for r in topo.interdomain_links(world.cloud_asn)}
    assert result.far_ips() <= truth
    # Probing ISP A (both prefixes), ISP B, and the transit's space
    # covers the peering links and at least one transit gateway.
    assert parse_ip("10.100.8.2") in result.far_ips() or \
        parse_ip("10.100.8.6") in result.far_ips()
    # Peering far sides must be attributed to ISP Alpha; transit far
    # sides may suffer the classic third-party-address ambiguity
    # (bdrmap's known error mode), so only the peering ones are pinned.
    for far_text in ("10.100.8.2", "10.100.8.6"):
        link = result.links.get(parse_ip(far_text))
        if link is not None:
            assert link.neighbor_asn == 400
    assert result.neighbors() <= {200, 300, 400}
    for link in result.links.values():
        assert link.via_alias  # cloud-numbered: alias rule must fire
        assert link.n_traces >= 1


def test_match_hop_via_aliases(mini_rig):
    world, topo, bdrmap = mini_rig
    result = bdrmap.run(world.pops["cloud-west"], CAMPAIGN_START,
                        flow_ids=(0,))
    far_ip = next(iter(result.far_ips()))
    index = result.build_hop_index()
    assert index[far_ip] == far_ip
    # Any alias of the far router maps back to a known far IP.
    for alias in result.far_aliases[far_ip]:
        assert index.get(alias) is not None


def test_destination_guard(mini_rig):
    """A trace whose only foreign evidence is the probed address must
    not fabricate a border."""
    from repro.tools.traceroute import Hop, Traceroute
    world, topo, bdrmap = mini_rig
    # Hand-craft: cloud hops then the destination, with alias evidence
    # removed by pointing the prev hop at a pure-cloud router interface
    # (a cloud loopback).
    trace = Traceroute(
        src_ip=parse_ip("10.100.0.1"), dst_ip=parse_ip("10.50.24.1"),
        ts=0.0, flow_id=0, reached=True,
        hops=(
            Hop(1, parse_ip("10.100.0.2"), 1.0),   # cloud loopback
            Hop(2, parse_ip("10.50.24.1"), 9.0),   # destination
        ))
    assert bdrmap._infer_one(trace) is None


def test_generated_world_accuracy():
    """On a generated Internet, precision stays high and a large share
    of the cloud's borders is discovered."""
    config = GeneratorConfig(
        n_tier1=4, n_transit=8, n_access_isp=24, n_big_isp=3,
        n_hosting=8, n_education=3, n_business=4)
    net = TopologyGenerator(config, SeedTree(83)).generate()
    topo = net.topology
    router = Router(topo, cloud_asn=net.cloud_asn)
    p2a = build_prefix2as(topo)
    scamper = Scamper(topo, router, seeds=SeedTree(84))
    bdrmap = Bdrmap(topo, scamper, p2a, net.cloud_asn,
                    AliasResolver(topo, seeds=SeedTree(85)))
    src = topo.pop_of_as_in_city(net.cloud_asn, "The Dalles, US")
    result = bdrmap.run(src.pop_id, CAMPAIGN_START)
    truth = {r.far_ip for r in topo.interdomain_links(net.cloud_asn)}
    inferred = result.far_ips()
    assert inferred, "bdrmap found nothing"
    precision = len(inferred & truth) / len(inferred)
    recall = len(inferred & truth) / len(truth)
    assert precision > 0.85
    assert recall > 0.4
