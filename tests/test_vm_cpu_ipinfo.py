"""The measurement VM's CPU headroom and ipinfo lookups."""

#: CPU utilization above which a test's throughput is suspect (the
#: paper checked its VMs stayed below this during 1 Gbps tests).
CPU_SUSPECT_THRESHOLD = 0.90


# ----------------------------------------------------------------------
# measurement VM


def _vm():
    from repro.cloud.machinetypes import MACHINE_TYPES
    from repro.cloud.nic import NetworkInterface
    from repro.cloud.regions import REGIONS
    from repro.cloud.tiers import NetworkTier
    from repro.cloud.vm import VirtualMachine
    return VirtualMachine(
        name="meta-vm", zone=REGIONS["us-west1"].zone("a"),
        machine_type=MACHINE_TYPES["n1-standard-2"],
        tier=NetworkTier.PREMIUM,
        nic=NetworkInterface(ip=1, host_pop_id=1, attach_link_id=1),
        created_ts=0.0)


def test_paper_vm_type_not_cpu_limited():
    """The paper verified n1-standard-2 can drive a 1 Gbps test without
    depleting CPU - our model must agree."""
    vm = _vm()
    cpu = vm.machine_type.cpu_utilization_during_test(1000.0)
    assert cpu < CPU_SUSPECT_THRESHOLD


# ----------------------------------------------------------------------
# ipinfo


def test_ipinfo_business_types(small_scenario):
    from repro.tools.ipinfo import BusinessType, IpInfoDatabase
    scenario = small_scenario
    db = scenario.clasp.ipinfo
    seen = set()
    for server in scenario.catalog:
        record = db.lookup(server.ip)
        assert record.asn == server.asn or record.business_type \
            is BusinessType.UNKNOWN
        seen.add(record.business_type)
    assert BusinessType.ISP in seen
    # Some fraction of lookups must be Unknown (database gaps).
    total = len(list(scenario.catalog))
    unknown = sum(1 for s in scenario.catalog
                  if db.business_type(s.ip) is BusinessType.UNKNOWN)
    assert 0 < unknown < total * 0.3


def test_ipinfo_unrouted_space(small_scenario):
    from repro.netsim.addressing import parse_ip
    from repro.tools.ipinfo import BusinessType
    record = small_scenario.clasp.ipinfo.lookup(parse_ip("198.51.100.9"))
    assert record.asn is None
    assert record.business_type is BusinessType.UNKNOWN


def test_ipinfo_deterministic_per_asn(small_scenario):
    db = small_scenario.clasp.ipinfo
    server = next(iter(small_scenario.catalog))
    assert db.business_type(server.ip) == db.business_type(server.ip)


def test_ipinfo_validation():
    """The calibrated coverage gap is a probability below one."""
    from repro.tools.ipinfo import UNKNOWN_RATE
    assert 0 <= UNKNOWN_RATE < 1
