"""Synthetic Internet generator invariants."""

import numpy as np
import pytest

from repro.geo import coords
from repro.geo.cities import City
from repro.geo.coords import GeoPoint
from repro.netsim import generator as generator_module
from repro.netsim.asn import AS, ASType
from repro.netsim.generator import (
    GeneratedInternet,
    GeneratorConfig,
    TopologyGenerator,
)
from repro.netsim.routing import GraphMode, Router
from repro.netsim.topology import LinkKind, Topology
from repro.netsim.traffic import UtilizationModel
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


def _greedy_tree(topo, pops):
    """Oracle: the all-pairs greedy scan that built backbone trees
    before Prim's algorithm, as (joined PoP id, nearest PoP id) pairs."""
    connected = [pops[0]]
    remaining = list(pops[1:])
    edges = []
    while remaining:
        best = None
        best_d = float("inf")
        for r in remaining:
            for c in connected:
                d = topo.cities[r.city_key].point.distance_km(
                    topo.cities[c.city_key].point)
                if d < best_d:
                    best_d = d
                    best = (r, c)
        r, c = best
        edges.append((r.pop_id, c.pop_id))
        connected.append(r)
        remaining.remove(r)
    return edges


def _grid_as(points):
    """One AS with a PoP at each (lat, lon), one synthetic city each."""
    topo = Topology()
    as_obj = topo.add_as(AS(asn=64500, name="Grid", as_type=ASType.TRANSIT))
    for i, (lat, lon) in enumerate(points):
        city = City(name=f"grid-{i}", country="US", region="us-west",
                    point=GeoPoint(lat, lon), utc_offset_hours=0.0)
        topo.add_city(city)
        topo.add_pop(as_obj.asn, city.key, loopback_ip=i + 1)
    return topo, as_obj


def _build_tree(topo, as_obj, seed=0):
    gen = TopologyGenerator(seeds=SeedTree(seed))
    util = UtilizationModel(SeedTree(seed), origin_ts=0.0)
    gen._build_backbone(topo, util, as_obj, (10.0, 60.0), mesh_degree=1,
                        base_range=(0.2, 0.4))
    return [(link.pop_a, link.pop_b) for link in topo.links.values()]


@pytest.mark.parametrize("seed", range(12))
def test_backbone_tree_matches_greedy_oracle_on_ties(seed):
    # Points on a coarse integer grid: duplicates are co-located PoPs
    # (zero distance) and the lattice makes many exactly equidistant
    # pairs, so every tie rule is exercised.
    draw = np.random.default_rng(seed)
    n = int(draw.integers(2, 16))
    points = [(float(lat), float(lon))
              for lat, lon in draw.integers(-2, 3, size=(n, 2))]
    topo, as_obj = _grid_as(points)
    edges = _build_tree(topo, as_obj, seed)
    assert edges == _greedy_tree(topo, topo.pops_of_as(as_obj.asn))


def test_backbone_trees_match_greedy_oracle_in_generated_world(small_net):
    topo = small_net.topology
    checked = 0
    for asn in topo.ases:
        pops = [p for p in topo.pops_of_as(asn) if not p.is_host]
        if len(pops) < 2:
            continue
        # The tree's links are the AS's first len(pops) - 1 backbone
        # links; chords come after them.
        backbone = [(link.pop_a, link.pop_b)
                    for link in topo.links.values()
                    if link.kind is LinkKind.BACKBONE
                    and topo.pop(link.pop_a).asn == asn]
        assert backbone[:len(pops) - 1] == _greedy_tree(topo, pops)
        checked += 1
    assert checked > 10


def test_backbone_tree_distance_calls_are_quadratic(monkeypatch):
    calls = []
    haversine = coords.haversine_km

    def counting(a, b):
        calls.append(1)
        return haversine(a, b)

    monkeypatch.setattr(coords, "haversine_km", counting)
    # Link delays are not part of the tree search.
    monkeypatch.setattr(generator_module, "propagation_delay_ms",
                        lambda a, b: 1.0)
    n = 12
    topo, as_obj = _grid_as([(3.0 * i, 2.0 * (i % 5)) for i in range(n)])
    assert len(_build_tree(topo, as_obj)) == n - 1
    assert 0 < len(calls) <= n * (n - 1) // 2


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
