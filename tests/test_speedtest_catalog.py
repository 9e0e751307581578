"""Speed test server catalog and crawler views."""

import pytest

from repro.netsim.generator import GeneratorConfig, TopologyGenerator
from repro.rng import SeedTree
from repro.speedtest.catalog import (
    CatalogConfig,
    ServerCatalog,
    build_catalog,
)
from repro.speedtest.server import Platform
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def world():
    config = GeneratorConfig(
        n_tier1=4, n_transit=8, n_access_isp=30, n_big_isp=3,
        n_hosting=10, n_education=4, n_business=5)
    net = TopologyGenerator(config, SeedTree(51)).generate()
    catalog = build_catalog(
        net, CatalogConfig(n_us_servers=120, n_global_servers=30),
        SeedTree(52))
    return net, catalog


def test_catalog_size_and_split(world):
    _net, catalog = world
    us = catalog.servers(country="US")
    non_us = [s for s in catalog if s.country != "US"]
    assert len(us) >= 100
    assert len(non_us) >= 15
    assert len(catalog) == len(us) + len(non_us)


def test_platform_mix(world):
    _net, catalog = world
    counts = {p: len(catalog.servers(platform=p)) for p in Platform}
    assert counts[Platform.OOKLA] > counts[Platform.MLAB] > 0
    assert counts[Platform.COMCAST] > 0


def test_server_attachment(world):
    net, catalog = world
    topo = net.topology
    for server in list(catalog)[:20]:
        host = topo.pop(server.host_pop_id)
        assert host.is_host
        assert host.asn == server.asn
        assert topo.resolve_ip_to_pop(server.ip).pop_id == server.host_pop_id
        link = topo.link(server.access_link_id)
        assert link.capacity_mbps >= 1000.0  # "at least 1 Gbps"
        # The access link carries a load profile.
        assert net.utilization.has_profile(server.access_link_id, 0)


def test_service_caps(world):
    _net, catalog = world
    for server in catalog:
        assert 0 < server.service_cap_mbps <= server.capacity_mbps
        assert server.effective_cap_mbps == pytest.approx(
            min(server.service_cap_mbps, server.capacity_mbps))


def test_crawl_exposes_no_topology_handles(world):
    _net, catalog = world
    records = catalog.crawl(Platform.OOKLA)
    assert records
    sample = records[0]
    assert not hasattr(sample, "host_pop_id")
    assert not hasattr(sample, "asn")
    assert sample.ip_text.count(".") == 3
    assert sample.city


def test_catalog_lookups(world):
    _net, catalog = world
    server = next(iter(catalog))
    assert catalog.get(server.server_id) is server
    with pytest.raises(ConfigError):
        catalog.get("nope-00000")


def test_ensure_asns():
    config = GeneratorConfig(
        n_tier1=4, n_transit=8, n_access_isp=12, n_big_isp=2,
        n_hosting=4, n_education=2, n_business=2)
    net = TopologyGenerator(config, SeedTree(53)).generate()
    target = net.access_isp_asns[0]
    catalog = build_catalog(
        net, CatalogConfig(n_us_servers=10, n_global_servers=4),
        SeedTree(54), ensure_asns={target: 3})
    assert sum(1 for s in catalog if s.asn == target) >= 3


def test_duplicate_ids_rejected(world):
    _net, catalog = world
    servers = list(catalog)[:2]
    with pytest.raises(ConfigError):
        ServerCatalog([servers[0], servers[0]])
