"""Topology data structure invariants (on the hand-built mini world)."""

import pytest

from repro.errors import TopologyError
from repro.netsim.addressing import parse_ip
from repro.netsim.asn import ASType
from repro.netsim.topology import LinkKind


def test_stats(mini_world):
    stats = mini_world.topology.stats()
    assert stats["ases"] == 5
    assert stats["pops"] == 10
    assert stats["interdomain_links"] == 7


def test_pop_uniqueness_per_city(mini_world):
    topo = mini_world.topology
    with pytest.raises(TopologyError):
        topo.add_pop(mini_world.cloud_asn, "Westville, US",
                     parse_ip("10.100.0.99"))


def test_unknown_lookups_raise(mini_world):
    topo = mini_world.topology
    with pytest.raises(TopologyError):
        topo.as_of(999)
    with pytest.raises(TopologyError):
        topo.pop(9999)
    with pytest.raises(TopologyError):
        topo.link(9999)


def test_relationships(mini_world):
    topo = mini_world.topology
    assert 200 in topo.providers_of(100)
    assert 100 not in topo.providers_of(200)
    assert topo.providers_of(500) == {300}
    assert topo.customers_of(200) == {100, 300}
    assert topo.peers_of(100) == {400}


def test_neighbors(mini_world):
    topo = mini_world.topology
    assert topo.neighbors(100) == {200, 400}
    assert topo.neighbors(300) == {200, 400, 500}


def test_interdomain_registry(mini_world):
    topo = mini_world.topology
    cloud_links = topo.interdomain_links(100)
    assert len(cloud_links) == 4  # 2 peering + 2 transit
    between = topo.interdomain_between(100, 400)
    assert len(between) == 2
    assert {r.city_key for r in between} == {"Westville, US",
                                             "Eastburg, US"}


def test_interface_and_operator(mini_world):
    topo = mini_world.topology
    far_ip = parse_ip("10.100.8.2")  # ISP Alpha's side, cloud-numbered
    iface = topo.interface_by_ip(far_ip)
    assert iface is not None
    assert iface.address_asn == 100
    # ...but the router it sits on is operated by ISP Alpha.
    assert topo.pop(iface.pop_id).asn == 400
    assert topo.interface_by_ip(parse_ip("203.0.113.1")) is None


def test_aliases(mini_world):
    topo = mini_world.topology
    # ISP Alpha's east router: peering iface + transit iface + loopback.
    aliases = topo.aliases_of(parse_ip("10.100.8.6"))
    assert parse_ip("10.40.0.2") in aliases     # loopback
    assert parse_ip("10.40.8.1") in aliases     # its transit-side iface
    assert parse_ip("10.100.8.6") in aliases


def test_add_host_and_leaf_semantics(mini_world):
    topo = mini_world.topology
    host = topo.add_host(400, mini_world.pops["ispa-west"],
                         parse_ip("10.40.0.200"), capacity_mbps=1000.0)
    assert host.is_host
    assert topo.resolve_ip_to_pop(parse_ip("10.40.0.200")).pop_id \
        == host.pop_id
    link = topo.links_of_pop(host.pop_id)[0]
    assert link.kind is LinkKind.LAN
    with pytest.raises(TopologyError):
        topo.add_host(400, host.pop_id, parse_ip("10.40.0.201"), 100.0)


def test_resolve_ip_prefers_interfaces_then_prefixes(mini_world):
    topo = mini_world.topology
    # An interface IP resolves to its PoP.
    pop = topo.resolve_ip_to_pop(parse_ip("10.30.8.1"))
    assert pop.pop_id == mini_world.pops["transit-east"]
    # A plain address inside an announced prefix resolves by LPM.
    pop2 = topo.resolve_ip_to_pop(parse_ip("10.50.24.77"))
    assert pop2.pop_id == mini_world.pops["ispb-south"]
    assert topo.resolve_ip_to_pop(parse_ip("198.51.100.1")) is None


def test_link_endpoints_api(mini_world):
    topo = mini_world.topology
    link = topo.link(mini_world.links["peer-aw"])
    assert link.other_pop(link.pop_a) == link.pop_b
    assert link.direction_from(link.pop_a) == 0
    assert link.direction_from(link.pop_b) == 1
    with pytest.raises(TopologyError):
        link.other_pop(424242)


def test_validate_catches_self_loop_interdomain(mini_world):
    topo = mini_world.topology
    pops = topo.pops_of_as(100)
    link = topo.add_link(LinkKind.INTERDOMAIN, pops[0].pop_id,
                         pops[1].pop_id, 1000.0, 1.0)
    with pytest.raises(TopologyError):
        topo.validate()


def test_link_validation():
    from repro.netsim.topology import Link
    with pytest.raises(TopologyError):
        Link(1, LinkKind.BACKBONE, 1, 1, 100.0, 1.0)  # self loop
    with pytest.raises(TopologyError):
        Link(1, LinkKind.BACKBONE, 1, 2, -5.0, 1.0)   # bad capacity
    with pytest.raises(TopologyError):
        Link(1, LinkKind.BACKBONE, 1, 2, 100.0, -1.0)  # bad delay
