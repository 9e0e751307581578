"""Valley-free invariant on generated topologies.

Every AS path the routing engine produces must follow Gao-Rexford
export rules: an uphill segment (customer-to-provider edges), at most
one peer edge, then a downhill segment (provider-to-customer edges) -
never a "valley" (down then up) and never two peer edges.
"""

import pytest

from repro.netsim.generator import GeneratorConfig, TopologyGenerator
from repro.netsim.routing import GraphMode, Router
from repro.netsim.topology import Topology
from repro.rng import SeedTree


def _edge_kind(topo: Topology, a: int, b: int) -> str:
    """'up' (a buys from b), 'down' (a sells to b), or 'peer'."""
    if b in topo.providers_of(a):
        return "up"
    if a in topo.providers_of(b):
        return "down"
    if b in topo.peers_of(a):
        return "peer"
    raise AssertionError(f"no relationship between AS{a} and AS{b}")


def assert_valley_free(topo: Topology, path) -> None:
    kinds = [_edge_kind(topo, a, b) for a, b in zip(path, path[1:])]
    # Phase machine: up* (peer)? down*
    phase = "up"
    peer_edges = 0
    for kind in kinds:
        if kind == "peer":
            peer_edges += 1
            assert phase == "up", f"peer edge after descent in {path}"
            phase = "down"
        elif kind == "up":
            assert phase == "up", f"valley (down then up) in {path}"
        else:  # down
            phase = "down"
    assert peer_edges <= 1, f"{peer_edges} peer edges in {path}"


@pytest.fixture(scope="module")
def world():
    config = GeneratorConfig(
        n_tier1=5, n_transit=10, n_access_isp=36, n_big_isp=4,
        n_hosting=12, n_education=4, n_business=6)
    net = TopologyGenerator(config, SeedTree(97)).generate()
    return net, Router(net.topology, cloud_asn=net.cloud_asn)


def test_cloud_to_every_edge_is_valley_free(world):
    net, router = world
    for mode in (GraphMode.FULL, GraphMode.STANDARD):
        for asn in net.edge_asns:
            path = router.as_path(net.cloud_asn, asn, mode)
            assert_valley_free(net.topology, path)


def test_every_edge_to_cloud_is_valley_free(world):
    net, router = world
    for mode in (GraphMode.FULL, GraphMode.STANDARD):
        for asn in net.edge_asns:
            path = router.as_path(asn, net.cloud_asn, mode)
            assert_valley_free(net.topology, path)


def test_edge_to_edge_paths_are_valley_free(world):
    net, router = world
    from repro.errors import NoRouteError
    sources = net.edge_asns[:12]
    targets = net.edge_asns[-12:]
    for src in sources:
        for dst in targets:
            if src == dst:
                continue
            try:
                path = router.as_path(src, dst)
            except NoRouteError:
                continue
            assert_valley_free(net.topology, path)


def test_paths_prefer_customer_routes(world):
    """When the cloud has a direct peer edge to an AS, the path is the
    direct one (peer preferred over provider detours)."""
    net, router = world
    topo = net.topology
    direct_peers = [asn for asn in net.edge_asns
                    if asn in topo.peers_of(net.cloud_asn)]
    assert direct_peers
    for asn in direct_peers[:20]:
        assert router.as_path(net.cloud_asn, asn) == \
            (net.cloud_asn, asn)
