"""CloudPlatform: VM lifecycle, quotas, tier-correct routing."""

import pytest

from repro.cloud import api
from repro.cloud.api import CloudPlatform, Direction
from repro.cloud.tiers import NetworkTier
from repro.errors import CloudError, QuotaExceededError
from repro.netsim.generator import GeneratorConfig, TopologyGenerator
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START


@pytest.fixture(scope="module")
def platform():
    config = GeneratorConfig(
        n_tier1=4, n_transit=8, n_access_isp=24, n_big_isp=3,
        n_hosting=8, n_education=3, n_business=4)
    net = TopologyGenerator(config, SeedTree(31)).generate()
    return CloudPlatform(net)


def test_available_regions(platform):
    regions = platform.available_regions()
    assert "us-west1" in regions
    assert "europe-west1" in regions


def test_region_pop(platform):
    pop = platform.region_pop("us-west1")
    assert pop.asn == platform.cloud_asn
    assert pop.city_key == "The Dalles, US"
    with pytest.raises(CloudError):
        platform.region_pop("mars-north1")


def test_create_vm_attaches_host(platform):
    vm = platform.create_vm("us-west1", "n1-standard-2",
                            NetworkTier.PREMIUM, CAMPAIGN_START)
    host = platform.topology.pop(vm.nic.host_pop_id)
    assert host.is_host
    assert host.asn == platform.cloud_asn
    assert platform.topology.resolve_ip_to_pop(vm.nic.ip).pop_id \
        == host.pop_id
    assert vm.zone.region_name == "us-west1"
    platform.terminate_vm(vm.name, CAMPAIGN_START + 3600)
    assert not platform.get_vm(vm.name).is_running


def test_zone_round_robin(platform):
    names = []
    for _ in range(3):
        vm = platform.create_vm("us-east1", "n1-standard-2",
                                NetworkTier.PREMIUM, CAMPAIGN_START)
        names.append(vm.zone.name)
    assert len(set(names)) == 3  # spread across zones
    for vm in platform.vms("us-east1"):
        platform.terminate_vm(vm.name, CAMPAIGN_START)


def test_quota_enforced(platform, monkeypatch):
    monkeypatch.setattr(api, "VM_QUOTA_PER_REGION", 3)
    created = []
    for _ in range(3):
        created.append(platform.create_vm(
            "us-central1", "n1-standard-2", NetworkTier.PREMIUM,
            CAMPAIGN_START))
    with pytest.raises(QuotaExceededError):
        platform.create_vm("us-central1", "n1-standard-2",
                           NetworkTier.PREMIUM, CAMPAIGN_START)
    # Terminating frees quota.
    platform.terminate_vm(created[0].name, CAMPAIGN_START)
    platform.create_vm("us-central1", "n1-standard-2",
                       NetworkTier.PREMIUM, CAMPAIGN_START)
    for vm in platform.vms("us-central1"):
        platform.terminate_vm(vm.name, CAMPAIGN_START)


def test_duplicate_name_rejected(platform):
    platform.create_vm("us-west2", "n1-standard-2", NetworkTier.PREMIUM,
                       CAMPAIGN_START, name="dupe")
    with pytest.raises(CloudError):
        platform.create_vm("us-west2", "n1-standard-2",
                           NetworkTier.PREMIUM, CAMPAIGN_START,
                           name="dupe")
    platform.terminate_vm("dupe", CAMPAIGN_START)


def test_tier_routing_table(platform):
    """Premium uses the peering graph; standard transits a provider."""
    internet = platform.internet
    prem_vm = platform.create_vm("us-west1", "n1-standard-2",
                                 NetworkTier.PREMIUM, CAMPAIGN_START)
    std_vm = platform.create_vm("us-west1", "n1-standard-2",
                                NetworkTier.STANDARD, CAMPAIGN_START)
    # Find an edge AS that peers directly with the cloud.
    target_pop = None
    for asn in internet.access_isp_asns:
        if internet.topology.interdomain_between(platform.cloud_asn, asn):
            target_pop = internet.topology.pops_of_as(asn)[0].pop_id
            break
    assert target_pop is not None

    prem_route = platform.route(prem_vm, target_pop, Direction.EGRESS)
    std_route = platform.route(std_vm, target_pop, Direction.EGRESS)
    assert len(prem_route.as_path) == 2      # direct peering
    assert len(std_route.as_path) >= 3       # via transit
    assert std_route.as_path[1] in internet.cloud_transit_asns

    # Ingress premium ends inside the cloud at the VM's host PoP.
    ingress = platform.route(prem_vm, target_pop, Direction.INGRESS)
    assert ingress.dst_pop == prem_vm.nic.host_pop_id
    assert ingress.src_pop == target_pop

    # Routes are cached.
    again = platform.route(prem_vm, target_pop, Direction.EGRESS)
    assert again is prem_route

    # route_pair returns (data, reverse).
    data, ack = platform.route_pair(prem_vm, target_pop,
                                    Direction.INGRESS)
    assert data.src_pop == target_pop
    assert ack.src_pop == prem_vm.nic.host_pop_id
    for vm in (prem_vm, std_vm):
        platform.terminate_vm(vm.name, CAMPAIGN_START)


def test_charge_vm_uptime(platform):
    vm = platform.create_vm("us-west4", "n1-standard-2",
                            NetworkTier.PREMIUM, CAMPAIGN_START)
    before = platform.costs.total_usd
    charged = platform.charge_vm_uptime(2.0)
    assert charged >= 2 * 0.095
    assert platform.costs.total_usd == pytest.approx(before + charged)
    platform.terminate_vm(vm.name, CAMPAIGN_START)
