"""Cloud platform building blocks: regions, machine types, NIC, VM."""

import pytest

from repro.cloud.machinetypes import MACHINE_TYPES
from repro.cloud.nic import NetworkInterface
from repro.cloud.providers import get_provider
from repro.cloud.regions import PAPER_REGIONS, PAPER_TABLE1_REGIONS, REGIONS
from repro.cloud.tiers import NetworkTier
from repro.cloud.vm import VirtualMachine, VMStatus
from repro.errors import CloudError, ConfigError


# ----------------------------------------------------------------------
# regions


def test_paper_regions_exist():
    for name in PAPER_REGIONS:
        region = REGIONS[name]
        assert region.zones
    assert set(PAPER_TABLE1_REGIONS) <= set(PAPER_REGIONS)


def test_region_zone_names():
    region = REGIONS["us-west1"]
    assert [z.name for z in region.zones] == \
        ["us-west1-a", "us-west1-b", "us-west1-c"]
    assert region.zone("a").region_name == "us-west1"
    with pytest.raises(CloudError):
        region.zone("z")


def test_unknown_region():
    with pytest.raises(CloudError):
        get_provider("gcp").region("mars-north1")


def test_region_cities_are_the_real_metros():
    assert REGIONS["us-west1"].city_key == "The Dalles, US"
    assert REGIONS["europe-west1"].city_key == "St. Ghislain, BE"
    assert REGIONS["us-central1"].city_key == "Council Bluffs, US"


# ----------------------------------------------------------------------
# machine types


def test_paper_machine_types():
    n1 = MACHINE_TYPES["n1-standard-2"]
    assert n1.vcpus == 2
    assert n1.memory_gb == pytest.approx(7.5)
    assert n1.egress_cap_mbps == 10_000.0
    n2 = MACHINE_TYPES["n2-standard-2"]
    assert n2.memory_gb == pytest.approx(8.0)


def test_machine_type_cpu_model():
    mtype = MACHINE_TYPES["n1-standard-2"]
    assert mtype.cpu_throughput_cap_mbps == pytest.approx(3600.0)
    assert mtype.cpu_utilization_during_test(1800.0) == pytest.approx(0.5)
    assert mtype.cpu_utilization_during_test(1e6) == 1.0
    with pytest.raises(ValueError):
        mtype.cpu_utilization_during_test(-1.0)


def test_unknown_machine_type():
    with pytest.raises(CloudError):
        get_provider("gcp").machine_type("x1-mega-512")


# ----------------------------------------------------------------------
# NIC


def test_nic_tc_semantics():
    nic = NetworkInterface(ip=1, host_pop_id=1, attach_link_id=1)
    assert nic.ingress_cap_mbps() == float("inf")
    nic.apply_tc(ingress_mbps=1000.0, egress_mbps=100.0)
    assert nic.ingress_cap_mbps() == 1000.0
    assert nic.egress_cap_mbps() == 100.0
    nic.apply_tc(ingress_mbps=None, egress_mbps=None)
    assert nic.egress_cap_mbps() == float("inf")
    with pytest.raises(ConfigError):
        nic.apply_tc(ingress_mbps=0.0, egress_mbps=None)


# ----------------------------------------------------------------------
# VM


def _vm(name="vm-1"):
    nic = NetworkInterface(ip=1, host_pop_id=1, attach_link_id=1)
    return VirtualMachine(
        name=name, zone=REGIONS["us-west1"].zone("a"),
        machine_type=MACHINE_TYPES["n1-standard-2"],
        tier=NetworkTier.PREMIUM, nic=nic, created_ts=0.0)


def test_vm_lifecycle_fields():
    vm = _vm()
    assert vm.is_running
    assert vm.region_name == "us-west1"
    vm.require_running()
    vm.status = VMStatus.TERMINATED
    vm.terminated_ts = 7200.0
    with pytest.raises(CloudError):
        vm.require_running()
    assert vm.uptime_hours(now_ts=1e9) == pytest.approx(2.0)


def test_vm_uptime_running():
    vm = _vm()
    assert vm.uptime_hours(now_ts=3600.0) == pytest.approx(1.0)
