"""Speed test protocol engine and headless-browser wrapper."""

import numpy as np
import pytest

from repro.cloud.api import CloudPlatform, Direction
from repro.cloud.tiers import NetworkTier
from repro.errors import SpeedTestError
from repro.faults import FaultInjector, FaultPlan
from repro.netsim.generator import GeneratorConfig, TopologyGenerator
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.speedtest.browser import HeadlessBrowser
from repro.speedtest.catalog import CatalogConfig, build_catalog
from repro.speedtest.protocol import SpeedTestEngine, flows_for_rtt


@pytest.fixture(scope="module")
def rig():
    config = GeneratorConfig(
        n_tier1=4, n_transit=8, n_access_isp=24, n_big_isp=3,
        n_hosting=8, n_education=3, n_business=4)
    net = TopologyGenerator(config, SeedTree(61)).generate()
    catalog = build_catalog(
        net, CatalogConfig(n_us_servers=60, n_global_servers=10),
        SeedTree(62))
    platform = CloudPlatform(net)
    vm = platform.create_vm("us-west1", "n1-standard-2",
                            NetworkTier.PREMIUM, CAMPAIGN_START)
    vm.nic.apply_tc(ingress_mbps=1000.0, egress_mbps=100.0)
    engine = SpeedTestEngine(platform, SeedTree(63))
    return platform, catalog, vm, engine


def test_flows_for_rtt_scaling():
    assert flows_for_rtt(10.0) == 24
    assert flows_for_rtt(50.0) == 48
    assert flows_for_rtt(1000.0) == 128
    with pytest.raises(ValueError):
        flows_for_rtt(0.0)


def test_result_respects_caps(rig):
    _platform, catalog, vm, engine = rig
    for server in catalog.servers(country="US")[:15]:
        result = engine.run(vm, server, CAMPAIGN_START + 8 * 3600)
        assert 0 < result.download_mbps <= 1000.0        # tc downlink
        assert 0 < result.upload_mbps <= 100.0           # tc uplink
        assert result.download_mbps <= server.effective_cap_mbps * 1.001
        assert result.latency_ms > 0
        assert 0 <= result.download_loss_rate < 1
        assert result.total_bytes > 0
        assert result.duration_s <= 120.0
        assert 0 <= result.cpu_utilization <= 1


def test_latency_close_to_path_rtt(rig):
    _platform, catalog, vm, engine = rig
    server = catalog.servers(country="US")[0]
    metrics = engine.path_snapshot(vm, server, CAMPAIGN_START,
                                   Direction.EGRESS)
    result = engine.run(vm, server, CAMPAIGN_START)
    # The reported (min-of-burst) latency sits just above the path RTT.
    assert result.latency_ms >= metrics.rtt_ms * 0.8
    assert result.latency_ms <= metrics.rtt_ms + 15.0


def test_failure_rate_and_retry():
    """With a huge failure rate the engine raises; the browser retries."""
    config = GeneratorConfig(
        n_tier1=4, n_transit=6, n_access_isp=10, n_big_isp=2,
        n_hosting=4, n_education=2, n_business=2)
    net = TopologyGenerator(config, SeedTree(64)).generate()
    catalog = build_catalog(
        net, CatalogConfig(n_us_servers=10, n_global_servers=2),
        SeedTree(65))
    platform = CloudPlatform(net)
    vm = platform.create_vm("us-west1", "n1-standard-2",
                            NetworkTier.PREMIUM, CAMPAIGN_START)
    engine = SpeedTestEngine(platform, SeedTree(66))
    engine.injector = FaultInjector(FaultPlan(speedtest_failure_rate=0.9),
                                    SeedTree(67))
    server = catalog.servers()[0]
    with pytest.raises(SpeedTestError):
        for _ in range(20):
            engine.run(vm, server, CAMPAIGN_START)
    browser = HeadlessBrowser(engine, max_retries=1)
    with pytest.raises(SpeedTestError):
        for _ in range(20):
            browser.run_test(vm, server, CAMPAIGN_START)


def test_browser_artifacts(rig):
    _platform, catalog, vm, engine = rig
    browser = HeadlessBrowser(engine)
    server = catalog.servers(country="US")[1]
    artefacts = browser.run_test(vm, server, CAMPAIGN_START)
    assert artefacts.result.server_id == server.server_id
    assert artefacts.pcap_bytes > 0
    assert artefacts.capture_bytes > 0
    assert artefacts.upload_size_bytes == \
        artefacts.pcap_bytes + artefacts.capture_bytes
    assert not artefacts.retried


def test_browser_validation(rig):
    _platform, _catalog, _vm, engine = rig
    with pytest.raises(ValueError):
        HeadlessBrowser(engine, max_retries=-1)


def test_terminated_vm_cannot_test(rig):
    platform, catalog, _vm, engine = rig
    from repro.errors import CloudError
    doomed = platform.create_vm("us-east1", "n1-standard-2",
                                NetworkTier.PREMIUM, CAMPAIGN_START)
    platform.terminate_vm(doomed.name, CAMPAIGN_START)
    with pytest.raises(CloudError):
        engine.run(doomed, catalog.servers()[0], CAMPAIGN_START)


def test_congestion_collapses_throughput(rig):
    """Overloading the server's peering ingress tanks the download."""
    platform, catalog, vm, engine = rig
    from repro.netsim.traffic import DiurnalProfile
    net = platform.internet
    server = None
    for s in catalog.servers(country="US"):
        if net.topology.interdomain_between(platform.cloud_asn, s.asn):
            server = s
            break
    assert server is not None
    before = engine.run(vm, server, CAMPAIGN_START + 3600).download_mbps
    for record in net.topology.interdomain_between(platform.cloud_asn,
                                                   server.asn):
        net.utilization.set_profile(record.link_id, 1,
                                    DiurnalProfile(base=1.25,
                                                   noise_sigma=0.0))
    after = engine.run(vm, server, CAMPAIGN_START + 3600).download_mbps
    assert after < before * 0.5
