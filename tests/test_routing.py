"""Valley-free routing, tier policies, and expansion on the mini world."""

import pytest

from repro.errors import NoRouteError, RoutingError
from repro.netsim.asn import AS, ASRelationship, ASType, RelationshipKind
from repro.netsim.routing import GraphMode, Router, TierPolicy
from repro.netsim.topology import Topology


@pytest.fixture()
def router(mini_world):
    return Router(mini_world.topology, cloud_asn=mini_world.cloud_asn)


def test_direct_peer_path(router):
    assert router.as_path(100, 400) == (100, 400)
    assert router.as_path(400, 100) == (400, 100)


def test_customer_route_preferred_over_peer_detour(router):
    # Cloud -> transit: the only valley-free option is via the tier-1
    # provider (the cloud cannot use ISP Alpha's transit link: peers do
    # not export provider routes).
    assert router.as_path(100, 300) == (100, 200, 300)


def test_single_homed_eyeball_path(router):
    # Cloud -> ISP Beta must descend via tier1 -> transit.
    assert router.as_path(100, 500) == (100, 200, 300, 500)
    assert router.as_path(500, 100) == (500, 300, 200, 100)


def test_valley_free_no_peer_then_provider(router):
    # ISP Alpha -> ISP Beta: cannot go up to cloud (peer) then up
    # again; must use its own provider chain.
    assert router.as_path(400, 500) == (400, 300, 500)


def test_standard_mode_removes_cloud_peering(router):
    full = router.as_path(400, 100, GraphMode.FULL)
    std = router.as_path(400, 100, GraphMode.STANDARD)
    assert full == (400, 100)
    assert std == (400, 300, 200, 100)


def test_standard_mode_non_cloud_paths_unchanged(router):
    assert router.as_path(400, 500, GraphMode.STANDARD) == \
        router.as_path(400, 500, GraphMode.FULL)


def test_self_path(router):
    assert router.as_path(100, 100) == (100,)


def test_no_route_raises(mini_world):
    topo = mini_world.topology
    from repro.netsim.asn import AS, ASType
    from repro.netsim.addressing import Prefix
    island = AS(asn=900, name="Island", as_type=ASType.BUSINESS)
    island.prefixes.append(Prefix.parse("10.90.0.0/16"))
    topo.add_as(island)
    router = Router(topo, cloud_asn=100)
    with pytest.raises(NoRouteError):
        router.as_path(100, 900)


def test_expand_validates_endpoints(router, mini_world):
    pops = mini_world.pops
    with pytest.raises(RoutingError):
        router.expand((100, 400), pops["t1-west"], pops["ispa-west"])
    with pytest.raises(RoutingError):
        router.expand((100, 400), pops["cloud-west"], pops["t1-west"])


def test_route_structure(router, mini_world):
    pops = mini_world.pops
    route = router.route(pops["cloud-west"], pops["ispa-east"])
    assert route.src_pop == pops["cloud-west"]
    assert route.dst_pop == pops["ispa-east"]
    assert len(route.pops) == len(route.links) + 1
    assert route.as_path == (100, 400)
    assert len(route.border_crossings) == 1


def test_hot_vs_cold_potato_egress(router, mini_world):
    """Premium egress (cold) exits near the destination; hot potato
    exits at the origin."""
    pops = mini_world.pops
    cold = router.route(pops["cloud-west"], pops["ispa-east"],
                        first_as_policy=TierPolicy.COLD_POTATO)
    hot = router.route(pops["cloud-west"], pops["ispa-east"],
                       first_as_policy=TierPolicy.HOT_POTATO)
    # Cold potato: ride the cloud WAN to the east peering link.
    assert cold.border_crossings[0].city_key == "Eastburg, US"
    # Hot potato: hand off immediately at the west peering link, then
    # ride ISP Alpha's backbone east.
    assert hot.border_crossings[0].city_key == "Westville, US"
    # The cold route spends more hops inside the cloud.
    cloud_hops_cold = sum(
        1 for p in cold.pops
        if mini_world.topology.pop(p).asn == 100)
    cloud_hops_hot = sum(
        1 for p in hot.pops
        if mini_world.topology.pop(p).asn == 100)
    assert cloud_hops_cold > cloud_hops_hot


def test_standard_ingress_enters_near_region(router, mini_world):
    """Standard-tier ingress is delivered at the transit interconnect
    nearest the destination region (cold potato on the last hop)."""
    pops = mini_world.pops
    # ISP Beta -> cloud-east region, standard tier.
    route = router.route(pops["ispb-south"], pops["cloud-east"],
                         mode=GraphMode.STANDARD,
                         last_as_policy=TierPolicy.COLD_POTATO)
    assert route.as_path == (500, 300, 200, 100)
    assert route.border_crossings[-1].city_key == "Eastburg, US"
    # With hot potato it would enter at the tier-1's nearest link
    # (already east here), so also check a west-coast region:
    route_west = router.route(pops["ispb-south"], pops["cloud-west"],
                              mode=GraphMode.STANDARD,
                              last_as_policy=TierPolicy.COLD_POTATO)
    assert route_west.border_crossings[-1].city_key == "Westville, US"


def test_route_delay_is_sum_of_links(router, mini_world):
    pops = mini_world.pops
    topo = mini_world.topology
    route = router.route(pops["cloud-west"], pops["ispb-south"])
    total = sum(topo.link(lid).delay_ms for lid, _d in route.links)
    assert route.propagation_delay_ms(topo) == pytest.approx(total)


def test_ecmp_flow_stability(router, mini_world):
    pops = mini_world.pops
    r1 = router.route(pops["cloud-west"], pops["ispb-south"], flow_id=5)
    r2 = router.route(pops["cloud-west"], pops["ispb-south"], flow_id=5)
    assert r1.links == r2.links


def test_intra_cache_invalidation(router, mini_world):
    from repro.netsim.addressing import parse_ip
    topo = mini_world.topology
    pops = mini_world.pops
    # Warm the cache.
    router.route(pops["cloud-west"], pops["ispa-east"])
    host = topo.add_host(400, pops["ispa-east"],
                         parse_ip("10.40.0.210"), 1000.0)
    with pytest.raises(NoRouteError):
        router.route(pops["cloud-west"], host.pop_id)
    router.invalidate_intra_cache(400)
    route = router.route(pops["cloud-west"], host.pop_id)
    assert route.dst_pop == host.pop_id


def test_hosts_never_transit(router, mini_world):
    """A route between two routers never passes through a host leaf."""
    from repro.netsim.addressing import parse_ip
    topo = mini_world.topology
    pops = mini_world.pops
    topo.add_host(400, pops["ispa-west"], parse_ip("10.40.0.220"), 1000.0)
    router.invalidate_intra_cache(400)
    route = router.route(pops["cloud-west"], pops["ispa-east"],
                         first_as_policy=TierPolicy.HOT_POTATO)
    for pop_id in route.pops:
        assert not topo.pop(pop_id).is_host


# ----------------------------------------------------------------------
# border memos


_POLICIES = [(first, last) for first in TierPolicy for last in TierPolicy]


def _all_routes(router, mini_world, flow_id=0):
    """Every routable (src, dst) in both directions under every policy."""
    pops = sorted(mini_world.pops.values())
    out = {}
    for mode in GraphMode:
        for first, last in _POLICIES:
            for src in pops:
                for dst in pops:
                    if src == dst:
                        continue
                    try:
                        out[(src, dst, mode, first, last)] = router.route(
                            src, dst, mode=mode, first_as_policy=first,
                            last_as_policy=last, flow_id=flow_id)
                    except NoRouteError:
                        out[(src, dst, mode, first, last)] = None
    return out


def _add_peering(topo, cloud_pop, isp_pop, near_ip, far_ip):
    """A cloud-numbered peering link AS100 -> AS400, as the generator
    (and ``add_cloud_wan``) registers them."""
    from repro.netsim.addressing import parse_ip
    from repro.netsim.topology import InterdomainLink, LinkKind
    link = topo.add_link(LinkKind.INTERDOMAIN, cloud_pop, isp_pop,
                         20000.0, 0.2, ip_a=parse_ip(near_ip),
                         ip_b=parse_ip(far_ip), address_asn=100)
    topo.register_interdomain(InterdomainLink(
        link_id=link.link_id, near_asn=100, far_asn=400,
        city_key=topo.pop(cloud_pop).city_key,
        near_ip=parse_ip(near_ip), far_ip=parse_ip(far_ip)))
    return link


def _fresh_route(mini_world, key, flow_id=0):
    src, dst, mode, first, last = key
    fresh = Router(mini_world.topology, cloud_asn=mini_world.cloud_asn)
    try:
        return fresh.route(src, dst, mode=mode, first_as_policy=first,
                           last_as_policy=last, flow_id=flow_id)
    except NoRouteError:
        return None


def test_border_memo_is_direction_sensitive(router, mini_world):
    """a->b and b->a cross the same links with near and far swapped; a
    warm router must route both exactly as a fresh one does."""
    routes = _all_routes(router, mini_world)
    assert sum(route is not None for route in routes.values()) > 100
    for key, route in routes.items():
        assert route == _fresh_route(mini_world, key), key
    hits, misses = router.take_memo_counts()
    assert hits > misses > 0


def test_border_memo_keeps_per_flow_ecmp(mini_world):
    """A parallel peering link ties on distance; the flow id still picks
    the member per flow, as on a fresh router."""
    topo = mini_world.topology
    pops = mini_world.pops
    link = _add_peering(topo, pops["cloud-west"], pops["ispa-west"],
                        "10.100.8.17", "10.100.8.18")
    router = Router(topo, cloud_asn=mini_world.cloud_asn)
    members = set()
    for flow_id in range(16):
        for key, route in _all_routes(router, mini_world, flow_id).items():
            assert route == _fresh_route(mini_world, key, flow_id), key
        route = router.route(pops["cloud-west"], pops["ispa-east"],
                             first_as_policy=TierPolicy.HOT_POTATO,
                             flow_id=flow_id)
        members.add(route.border_crossings[0].link_id)
    assert members == {mini_world.links["peer-aw"], link.link_id}


def _adjacency_oracle(topo, cloud_asn, mode):
    """Per-AS Topology queries, copied and pruned as the adjacency
    was built before the one-pass fill."""
    adj = {"providers": {}, "customers": {}, "peers": {}}
    for asn in topo.ases:
        adj["providers"][asn] = set(topo.providers_of(asn))
        adj["customers"][asn] = set(topo.customers_of(asn))
        adj["peers"][asn] = set(topo.peers_of(asn))
    if mode is GraphMode.STANDARD:
        for peer in adj["peers"][cloud_asn]:
            adj["peers"][peer].discard(cloud_asn)
        adj["peers"][cloud_asn] = set()
        for cust in adj["customers"][cloud_asn]:
            adj["providers"][cust].discard(cloud_asn)
        adj["customers"][cloud_asn] = set()
    return adj


def _reordering_world():
    """A cloud whose peer set iterates differently once copied.

    Filled in this order, {110, 120, 3, 100, 7} lays out as
    [3, 100, 7, 110, 120], and its copy as [3, 100, 7, 120, 110].
    """
    topo = Topology()
    for asn in (1000, 110, 120, 3, 100, 7):
        topo.add_as(AS(asn=asn, name=f"AS{asn}", as_type=ASType.ACCESS_ISP))
    for asn in (110, 120, 3, 100, 7):
        topo.add_relationship(
            ASRelationship(1000, asn, RelationshipKind.PEER_TO_PEER))
    topo.add_relationship(
        ASRelationship(110, 120, RelationshipKind.CUSTOMER_TO_PROVIDER))
    return topo, 1000


@pytest.mark.parametrize("world", ["mini", "reordering", "small"])
def test_adjacency_matches_per_as_queries_in_order(world, mini_world,
                                                   small_scenario):
    if world == "mini":
        topo, cloud = mini_world.topology, mini_world.cloud_asn
    elif world == "reordering":
        topo, cloud = _reordering_world()
        peers = topo.peers_of(cloud)
        assert list(set(peers)) != list(peers)
    else:
        topo = small_scenario.internet.topology
        cloud = small_scenario.internet.cloud_asn
    router = Router(topo, cloud_asn=cloud)
    for mode in GraphMode:
        want = _adjacency_oracle(topo, cloud, mode)
        got = router._adjacency(mode)
        for kind in ("providers", "customers", "peers"):
            assert list(got[kind]) == list(want[kind])
            for asn, expected in want[kind].items():
                assert list(got[kind][asn]) == list(expected), (
                    kind, mode, asn)
