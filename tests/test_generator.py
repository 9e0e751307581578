"""Synthetic Internet generator invariants."""

import pytest

from repro.netsim.asn import ASType
from repro.netsim.generator import (
    GeneratedInternet,
    GeneratorConfig,
    TopologyGenerator,
)
from repro.netsim.routing import GraphMode, Router
from repro.netsim.topology import LinkKind
from repro.rng import SeedTree

from .traffic_profiles import peak_mean


@pytest.fixture(scope="module")
def small_net() -> GeneratedInternet:
    config = GeneratorConfig(
        n_tier1=4, n_transit=8, n_access_isp=40, n_big_isp=4,
        n_hosting=14, n_education=4, n_business=6)
    return TopologyGenerator(config, SeedTree(21)).generate()


def test_population_counts(small_net):
    assert len(small_net.tier1_asns) == 4
    assert len(small_net.transit_asns) == 8
    assert len(small_net.access_isp_asns) == 40
    assert len(small_net.big_isp_asns) == 4
    assert len(small_net.hosting_asns) == 14
    assert small_net.cloud_asn == 15169
    assert len(small_net.edge_asns) == 40 + 14 + 4 + 6


def test_determinism():
    config = GeneratorConfig(n_tier1=4, n_transit=6, n_access_isp=20,
                             n_big_isp=3, n_hosting=8, n_education=3,
                             n_business=4)
    a = TopologyGenerator(config, SeedTree(5)).generate()
    b = TopologyGenerator(config, SeedTree(5)).generate()
    assert a.topology.stats() == b.topology.stats()
    assert a.congested_asns == b.congested_asns
    links_a = sorted((r.near_asn, r.far_asn, r.far_ip)
                     for r in a.topology.interdomain_links())
    links_b = sorted((r.near_asn, r.far_asn, r.far_ip)
                     for r in b.topology.interdomain_links())
    assert links_a == links_b


def test_every_as_has_pops_and_prefixes(small_net):
    topo = small_net.topology
    for asn, as_obj in topo.ases.items():
        router_pops = [p for p in topo.pops_of_as(asn) if not p.is_host]
        assert router_pops, f"AS{asn} has no PoPs"
        assert as_obj.prefixes, f"AS{asn} announces nothing"


def test_backbones_connected(small_net):
    """Every multi-PoP AS's backbone must be internally connected."""
    topo = small_net.topology
    router = Router(topo, cloud_asn=small_net.cloud_asn)
    for asn in topo.ases:
        pops = [p for p in topo.pops_of_as(asn) if not p.is_host]
        if len(pops) < 2:
            continue
        table = router._intra_table(asn, pops[0].pop_id)
        for pop in pops[1:]:
            assert pop.pop_id in table, \
                f"AS{asn} PoP {pop.pop_id} unreachable on its backbone"


def test_interdomain_links_have_interfaces(small_net):
    topo = small_net.topology
    for record in topo.interdomain_links():
        link = topo.link(record.link_id)
        assert link.kind is LinkKind.INTERDOMAIN
        assert link.iface_a is not None and link.iface_b is not None
        far_iface = topo.interface_by_ip(record.far_ip)
        assert topo.pop(far_iface.pop_id).asn == record.far_asn


def test_cloud_border_links_cloud_numbered(small_net):
    """The cloud numbers its interconnects from its own space."""
    topo = small_net.topology
    for record in topo.interdomain_links(small_net.cloud_asn):
        iface = topo.interface_by_ip(record.far_ip)
        assert iface.address_asn == small_net.cloud_asn


def test_valley_free_reachability(small_net):
    """The cloud can reach every edge AS in both graph modes."""
    router = Router(small_net.topology, cloud_asn=small_net.cloud_asn)
    from repro.errors import NoRouteError
    unreachable = {GraphMode.FULL: 0, GraphMode.STANDARD: 0}
    for mode in unreachable:
        for asn in small_net.edge_asns:
            try:
                router.as_path(small_net.cloud_asn, asn, mode)
            except NoRouteError:
                unreachable[mode] += 1
    assert unreachable[GraphMode.FULL] == 0
    assert unreachable[GraphMode.STANDARD] == 0


def test_standard_paths_avoid_cloud_peering(small_net):
    """Standard-tier paths transit a cloud provider, never a peer edge."""
    topo = small_net.topology
    router = Router(topo, cloud_asn=small_net.cloud_asn)
    transits = set(small_net.cloud_transit_asns)
    for asn in small_net.edge_asns[:30]:
        path = router.as_path(small_net.cloud_asn, asn, GraphMode.STANDARD)
        assert path[1] in transits, path


def test_congestion_profiles_assigned(small_net):
    """Congested ISPs' ingress directions peak above the loss onset."""
    topo = small_net.topology
    util = small_net.utilization
    congested_peaks = []
    for asn in small_net.congested_asns:
        for record in topo.interdomain_between(small_net.cloud_asn, asn):
            profile = util.profile(record.link_id, 1)
            congested_peaks.append(peak_mean(profile))
    if congested_peaks:  # congested ASes without direct peering exist
        assert max(congested_peaks) > 0.9
        assert sum(p > 0.8 for p in congested_peaks) >= \
            len(congested_peaks) * 0.5


def test_story_isp(small_net):
    gen = TopologyGenerator(
        GeneratorConfig(n_tier1=4, n_transit=8, n_access_isp=10,
                        n_big_isp=2, n_hosting=4, n_education=2,
                        n_business=2),
        SeedTree(77))
    net = gen.generate()
    story = gen.add_story_isp(
        net, "Testy Cable",
        home_city_keys=["San Diego, US", "Las Vegas, US"],
        congestion="daytime")
    topo = net.topology
    assert topo.as_of(story.asn).name == "Testy Cable"
    assert story.asn in net.congested_asns
    assert story.asn in net.access_isp_asns
    peering = topo.interdomain_between(net.cloud_asn, story.asn)
    assert peering
    # The ingress profiles follow the daytime story shape.
    profile = net.utilization.profile(peering[0].link_id, 1)
    assert any(abs(b.center_hour - 13.0) < 1.0 for b in profile.bumps)
    # It is routable from the cloud.
    router = Router(topo, cloud_asn=net.cloud_asn)
    assert router.as_path(net.cloud_asn, story.asn) == \
        (net.cloud_asn, story.asn)


def test_story_isp_pinned_peering(small_net):
    gen = TopologyGenerator(
        GeneratorConfig(n_tier1=4, n_transit=8, n_access_isp=10,
                        n_big_isp=2, n_hosting=4, n_education=2,
                        n_business=2),
        SeedTree(78))
    net = gen.generate()
    story = gen.add_story_isp(
        net, "Far Peering ISP",
        home_city_keys=["Sydney, AU"],
        peering_city_keys=["Los Angeles, US"])
    peering = net.topology.interdomain_between(net.cloud_asn, story.asn)
    assert {r.city_key for r in peering} == {"Los Angeles, US"}


def test_config_validation():
    with pytest.raises(Exception):
        GeneratorConfig(n_big_isp=100, n_access_isp=10)
