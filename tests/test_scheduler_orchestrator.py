"""Hourly schedule and VM orchestration."""

import numpy as np
import pytest

from repro.core.orchestrator import (
    DOWNLINK_CAP_MBPS,
    TESTS_PER_VM_HOUR,
    UPLINK_CAP_MBPS,
    Orchestrator,
)
from repro.core.scheduler import HourlySchedule, TEST_SLOT_S
from repro.core.scheduler import TestSlot as ScheduledSlot
from repro.errors import SchedulingError, ValidationError
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.units import HOUR


def test_vms_needed():
    assert Orchestrator.vms_needed(1) == 1
    assert Orchestrator.vms_needed(17) == 1
    assert Orchestrator.vms_needed(18) == 2
    assert Orchestrator.vms_needed(106) == 7
    with pytest.raises(SchedulingError):
        Orchestrator.vms_needed(0)


def test_schedule_validation():
    with pytest.raises(SchedulingError):
        HourlySchedule("vm", [])
    with pytest.raises(SchedulingError):
        HourlySchedule("vm", [f"s{i}" for i in range(18)])
    with pytest.raises(SchedulingError):
        HourlySchedule("vm", ["s1", "s1"])


def test_hour_slots_cover_all_servers_once():
    servers = [f"s{i}" for i in range(17)]
    schedule = HourlySchedule("vm", servers, SeedTree(1))
    slots = schedule.hour_slots(float(CAMPAIGN_START))
    assert sorted(s.server_id for s in slots) == sorted(servers)
    # Slots are spaced by the 120 s test budget, inside the hour.
    for i, slot in enumerate(slots):
        assert CAMPAIGN_START + i * TEST_SLOT_S <= slot.ts
        assert slot.ts < CAMPAIGN_START + (i + 1) * TEST_SLOT_S
        assert slot.slot_index == i


def test_order_randomized_between_hours():
    servers = [f"s{i}" for i in range(17)]
    schedule = HourlySchedule("vm", servers, SeedTree(2))
    h1 = [s.server_id for s in schedule.hour_slots(float(CAMPAIGN_START))]
    h2 = [s.server_id for s in
          schedule.hour_slots(float(CAMPAIGN_START + HOUR))]
    assert h1 != h2  # astronomically unlikely to collide


def test_schedule_deterministic_per_seed():
    servers = [f"s{i}" for i in range(10)]
    a = HourlySchedule("vm", servers, SeedTree(3))
    b = HourlySchedule("vm", servers, SeedTree(3))
    assert [s.server_id for s in a.hour_slots(float(CAMPAIGN_START))] == \
        [s.server_id for s in b.hour_slots(float(CAMPAIGN_START))]



def _scalar_hour_slots(rng, vm_name, servers, hour_start):
    """Reference: the slot order, then one scalar jitter draw per slot."""
    order = rng.permutation(len(servers))
    slots = []
    for slot_index, server_idx in enumerate(order):
        jitter = float(rng.uniform(1.0, 8.0))
        slots.append(ScheduledSlot(
            ts=hour_start + slot_index * TEST_SLOT_S + jitter,
            vm_name=vm_name, server_id=servers[int(server_idx)],
            slot_index=slot_index))
    return slots


@pytest.mark.parametrize("n_servers", [1, 2, 5, 17])
def test_hour_slots_match_one_jitter_draw_per_slot(n_servers):
    """All of an hour's jitters come from one draw: the slots, and the
    stream's next draw after them, equal a scalar draw per slot."""
    servers = [f"s{i}" for i in range(n_servers)]
    for seed in range(8):
        schedule = HourlySchedule("vm", servers, SeedTree(seed))
        oracle = SeedTree(seed).generator("schedule-vm")
        for hour in range(3):
            start = float(CAMPAIGN_START + hour * HOUR)
            assert schedule.hour_slots(start) == \
                _scalar_hour_slots(oracle, "vm", servers, start)
        assert schedule._rng.random() == oracle.random()

def test_misaligned_hour_rejected():
    schedule = HourlySchedule("vm", ["s1"], SeedTree(4))
    with pytest.raises(SchedulingError):
        schedule.hour_slots(float(CAMPAIGN_START) + 17.0)


def test_tail_of_hour_budgets():
    servers = [f"s{i}" for i in range(17)]
    schedule = HourlySchedule("vm", servers, SeedTree(5))
    start = float(CAMPAIGN_START)
    tr = schedule.traceroute_window(start)
    up = schedule.upload_ts(start)
    assert tr == start + 17 * TEST_SLOT_S
    assert up == tr + 20 * 60
    assert up + 5 * 60 <= start + HOUR  # everything fits in the hour


# ----------------------------------------------------------------------
# orchestrator (on the small generated scenario)


def _teardown(platform, plan):
    """Terminate a plan's running VMs so the shared scenario's regional
    quota is free for the next test."""
    for vm in plan.vms:
        if vm.is_running:
            platform.terminate_vm(vm.name, float(CAMPAIGN_START))


def test_deploy_topology(small_scenario, us_server_ids):
    clasp = small_scenario.clasp
    orch = clasp.orchestrator
    server_ids = us_server_ids(40)
    plan = orch.deploy_topology("us-west4", server_ids,
                                float(CAMPAIGN_START))
    try:
        assert len(plan.vms) == Orchestrator.vms_needed(len(server_ids))
        assert sorted(plan.server_ids) == sorted(server_ids)
        for vm, chunk in plan.assignments:
            assert len(chunk) <= TESTS_PER_VM_HOUR
            assert vm.nic.ingress_cap_mbps() == DOWNLINK_CAP_MBPS
            assert vm.nic.egress_cap_mbps() == UPLINK_CAP_MBPS
            assert vm.machine_type.name == "n1-standard-2"
        assert plan.bucket.region_name == "us-west4"
    finally:
        _teardown(clasp.platform, plan)
    assert all(not vm.is_running for vm in plan.vms)


def test_deploy_topology_budget_cap(small_scenario, us_server_ids):
    clasp = small_scenario.clasp
    server_ids = us_server_ids(40)
    plan = clasp.orchestrator.deploy_topology(
        "us-west3", server_ids, float(CAMPAIGN_START), budget_servers=10)
    try:
        assert len(plan.server_ids) == 10
        assert plan.server_ids == server_ids[:10]
    finally:
        _teardown(clasp.platform, plan)



@pytest.mark.parametrize("budget", [0, -2])
def test_deploy_topology_rejects_nonpositive_budget(small_scenario,
                                                    us_server_ids, budget):
    """A negative budget must not slice servers off the end."""
    with pytest.raises(ValidationError, match="budget_servers"):
        small_scenario.clasp.orchestrator.deploy_topology(
            "us-west3", us_server_ids(40), float(CAMPAIGN_START),
            budget_servers=budget)

def test_deploy_differential_pairs(small_scenario):
    from repro.cloud.tiers import NetworkTier
    clasp = small_scenario.clasp
    server_ids = [s.server_id
                  for s in list(small_scenario.catalog)[:8]]
    plan = clasp.orchestrator.deploy_differential(
        "europe-west2", server_ids, float(CAMPAIGN_START))
    try:
        assert len(plan.vms) == 2
        tiers = {vm.tier for vm in plan.vms}
        assert tiers == {NetworkTier.PREMIUM, NetworkTier.STANDARD}
        for _vm, chunk in plan.assignments:
            assert chunk == server_ids
    finally:
        _teardown(clasp.platform, plan)


def test_deploy_differential_rejects_oversized_list(small_scenario):
    clasp = small_scenario.clasp
    ids = [s.server_id for s in list(small_scenario.catalog)[:18]]
    with pytest.raises(SchedulingError):
        clasp.orchestrator.deploy_differential(
            "europe-west4", ids, float(CAMPAIGN_START))


def test_deploy_rejects_empty(small_scenario):
    with pytest.raises(SchedulingError):
        small_scenario.clasp.orchestrator.deploy_topology(
            "us-west1", [], float(CAMPAIGN_START))
