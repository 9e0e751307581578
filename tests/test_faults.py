"""The deterministic fault-injection layer (``repro.faults``).

Covers the plan/injector contracts directly, then a full fault matrix:
every :class:`FaultKind` is driven through its real injection site by
running a small campaign with only that fault's rate turned up, and the
campaign must *complete* with tagged-lost records instead of raising.
"""

import dataclasses
import random

import pytest

from repro.cloud.vm import VMStatus
from repro.core.congestion import detect
from repro.errors import ValidationError
from repro.experiments.scenario import build_scenario
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.units import HOUR


# ----------------------------------------------------------------------
# FaultPlan validation


def test_plan_rejects_bad_rates():
    with pytest.raises(ValidationError):
        FaultPlan(speedtest_failure_rate=1.0)
    with pytest.raises(ValidationError):
        FaultPlan(vm_preemption_per_hour=-0.1)
    with pytest.raises(ValidationError):
        FaultPlan(slow_start_max_hours=-1)
    with pytest.raises(ValidationError):
        FaultPlan(max_retries=-1)
    with pytest.raises(ValidationError):
        FaultPlan(backoff_base_s=0.0)
    with pytest.raises(ValidationError):
        FaultPlan(backoff_factor=0.5)
    with pytest.raises(ValidationError):
        FaultPlan(link_flap_utilization=0.5)


def test_plan_presets():
    assert not FaultPlan.none().enabled
    assert FaultPlan.default().enabled
    heavy, default = FaultPlan.heavy(), FaultPlan.default()
    for rate in ("vm_preemption_per_hour", "slow_start_max_hours",
                 "speedtest_failure_rate", "truncated_transfer_rate",
                 "upload_failure_rate", "link_flap_per_hour"):
        assert getattr(heavy, rate) >= getattr(default, rate)


def test_plan_backoff_is_geometric():
    plan = FaultPlan(backoff_base_s=5.0, backoff_factor=2.0)
    assert plan.backoff_s(0) == 5.0
    assert plan.backoff_s(1) == 10.0
    assert plan.backoff_s(2) == 20.0
    with pytest.raises(ValidationError):
        plan.backoff_s(-1)


# ----------------------------------------------------------------------
# injector determinism


def _heavy_injector(seed=99):
    return FaultInjector(FaultPlan.heavy(), SeedTree(seed))


def test_injector_same_seed_same_decisions():
    a, b = _heavy_injector(), _heavy_injector()
    ts0 = float(CAMPAIGN_START)
    for hour in range(48):
        ts = ts0 + hour * HOUR
        assert a.vm_preempted("vm-1", ts) == b.vm_preempted("vm-1", ts)
        assert a.speedtest_fails("vm-1", "s1", ts) == \
            b.speedtest_fails("vm-1", "s1", ts)
        assert a.truncation_fraction("vm-1", "s2", ts) == \
            b.truncation_fraction("vm-1", "s2", ts)
        assert a.link_flap_utilization(7, 0, ts) == \
            b.link_flap_utilization(7, 0, ts)
    assert a.upload_fails("b", "k", 0) == b.upload_fails("b", "k", 0)
    assert a.events == b.events


def test_injector_decisions_are_order_independent():
    """Querying sites in a different order must not change outcomes."""
    ts0 = float(CAMPAIGN_START)
    queries = [("vm-a", "s1"), ("vm-a", "s2"), ("vm-b", "s1")]
    forward = _heavy_injector(5)
    backward = _heavy_injector(5)
    got_fwd = {q: forward.speedtest_fails(q[0], q[1], ts0)
               for q in queries}
    got_bwd = {q: backward.speedtest_fails(q[0], q[1], ts0)
               for q in reversed(queries)}
    assert got_fwd == got_bwd


def test_injector_different_seeds_differ():
    ts0 = float(CAMPAIGN_START)
    a, b = _heavy_injector(1), _heavy_injector(2)
    decisions_a = [a.speedtest_fails("vm", f"s{i}", ts0)
                   for i in range(200)]
    decisions_b = [b.speedtest_fails("vm", f"s{i}", ts0)
                   for i in range(200)]
    assert decisions_a != decisions_b


def test_injector_caches_repeated_queries():
    """Re-asking the same question returns the cached answer and does
    not duplicate the event log (link flaps are queried per path
    evaluation, many times per hour)."""
    injector = FaultInjector(FaultPlan(link_flap_per_hour=0.9),
                             SeedTree(3))
    ts = float(CAMPAIGN_START)
    first = injector.link_flap_utilization(1, 0, ts)
    n_events = len(injector.events)
    for _ in range(10):
        assert injector.link_flap_utilization(1, 0, ts + 120.0) == first
    assert len(injector.events) == n_events


def test_injector_disabled_plan_injects_nothing():
    injector = FaultInjector(FaultPlan.none(), SeedTree(4))
    ts = float(CAMPAIGN_START)
    assert not injector.vm_preempted("vm", ts)
    assert injector.truncation_fraction("vm", "s", ts) is None
    assert injector.slow_start_hours("vm", ts) == 0
    assert injector.link_flap_utilization(1, 1, ts) is None
    assert injector.events == []
    assert set(injector.summary().values()) == {0}


def _flap_queries(seed):
    """Link-flap queries the way the evaluator issues them: mostly in
    hour order, keys first seen mid-hour, retries that step back over an
    hour edge, one hour revisited out of order, and keys that return
    after more than a day idle."""
    rnd = random.Random(seed)
    ts0 = float(CAMPAIGN_START)
    queries, n_links = [], 30
    for hour in list(range(10)) + [3, 10, 11, 10, 12, 40, 41]:
        for _ in range(80):
            if rnd.random() < 0.05:
                n_links += 1
            back = HOUR if hour and rnd.random() < 0.1 else 0.0
            queries.append((rnd.randrange(n_links), rnd.randrange(2),
                            ts0 + hour * HOUR - back
                            + rnd.uniform(0.0, HOUR)))
    return queries


def _oracle_flaps(plan, seed, queries):
    """One first draw of the decision stream per (key, hour), logged
    when first asked: the per-query rule the hour tables must match."""
    streams = FaultInjector(plan, SeedTree(seed))
    cache, events, floors = {}, [], []
    for link_id, direction, ts in queries:
        if not plan.enabled or plan.link_flap_per_hour <= 0.0:
            floors.append(None)
            continue
        key, hour_ts = f"{link_id}/{direction}", int(ts // HOUR) * HOUR
        cache_key = (FaultKind.LINK_FLAP, key, hour_ts)
        if cache_key not in cache:
            draw = streams._stream(FaultKind.LINK_FLAP, key, hour_ts).random()
            cache[cache_key] = draw < plan.link_flap_per_hour
            if cache[cache_key]:
                events.append(FaultEvent(FaultKind.LINK_FLAP, key,
                                         float(hour_ts)))
        floors.append(plan.link_flap_utilization if cache[cache_key]
                      else None)
    return floors, events, cache


@pytest.mark.parametrize("plan", [
    FaultPlan.heavy(),
    dataclasses.replace(FaultPlan.heavy(), link_flap_per_hour=0.3),
    FaultPlan.none(),
    dataclasses.replace(FaultPlan.heavy(), link_flap_per_hour=0.0),
], ids=["heavy", "heavy-flap-0.3", "disabled", "rate-0"])
@pytest.mark.parametrize("seed", [5, 61])
def test_flap_hour_tables_match_per_query_oracle(plan, seed):
    queries = _flap_queries(seed)
    want_floors, want_events, want_cache = _oracle_flaps(plan, seed,
                                                         queries)
    injector = FaultInjector(plan, SeedTree(seed))
    floors = [injector.link_flap_utilization(*query) for query in queries]
    assert floors == want_floors
    assert injector.events == want_events
    assert injector._cache == want_cache
    summary = {kind.value: 0 for kind in FaultKind}
    summary[FaultKind.LINK_FLAP.value] = len(want_events)
    assert injector.summary() == summary
    counts = injector.take_draw_counts()
    if want_cache:
        assert counts["flap_draws_batched"] > 0
        assert 0 < counts["flap_draws_single"] < len(want_cache)
    else:
        assert counts == {"flap_draws_batched": 0, "flap_draws_single": 0}
    assert injector.take_draw_counts() == {"flap_draws_batched": 0,
                                           "flap_draws_single": 0}


def test_flap_hour_tables_keep_previous_hour_and_drop_idle_keys():
    """A retry stepping back over an hour edge reuses that hour's table;
    a third hour is drawn again, without keys idle for over a day."""
    injector = _heavy_injector()
    ts0 = float(CAMPAIGN_START // HOUR * HOUR)
    injector.link_flap_utilization(1, 0, ts0)
    injector.link_flap_utilization(1, 0, ts0 + HOUR)
    assert injector.take_draw_counts() == {"flap_draws_batched": 1,
                                           "flap_draws_single": 1}
    injector.link_flap_utilization(1, 0, ts0 + 30.0)
    injector.link_flap_utilization(1, 0, ts0 + HOUR + 30.0)
    assert injector.take_draw_counts() == {"flap_draws_batched": 0,
                                           "flap_draws_single": 0}
    injector.link_flap_utilization(1, 0, ts0 + 2 * HOUR)
    assert injector.take_draw_counts() == {"flap_draws_batched": 1,
                                           "flap_draws_single": 0}
    injector.link_flap_utilization(2, 0, ts0 + 27 * HOUR)
    assert injector.take_draw_counts() == {"flap_draws_batched": 0,
                                           "flap_draws_single": 1}


def _study_flap_queries(seed, probes=400):
    """Queries the way the Speedchecker study issues them: each probe
    evaluates one of a few paths (20 link directions) at an instant
    drawn uniformly over five days, so nearly every probe jumps to
    another hour."""
    rnd = random.Random(seed)
    ts0 = float(CAMPAIGN_START)
    paths = [[(rnd.randrange(300), rnd.randrange(2)) for _ in range(20)]
             for _ in range(12)]
    queries = []
    for _ in range(probes):
        ts = ts0 + rnd.uniform(0.0, 120 * HOUR)
        queries.extend((link_id, direction, ts)
                       for link_id, direction in rnd.choice(paths))
    return queries


def test_flap_draws_on_a_random_hour_pattern_scale_with_key_hours():
    """A random-hour pattern draws about once per distinct (link,
    direction, hour): a table left by a jump is kept, and a new table
    draws only what the hour before it answered."""
    plan = dataclasses.replace(FaultPlan.heavy(), link_flap_per_hour=0.3)
    queries = _study_flap_queries(7)
    want_floors, want_events, want_cache = _oracle_flaps(plan, 7, queries)
    injector = FaultInjector(plan, SeedTree(7))
    assert [injector.link_flap_utilization(*query)
            for query in queries] == want_floors
    assert injector.events == want_events
    assert injector._cache == want_cache
    counts = injector.take_draw_counts()
    distinct = len(want_cache)
    # Each batched draw answers a distinct key-hour of the table before
    # it, and each single draw one of this pattern's key-hours.
    assert counts["flap_draws_single"] <= distinct
    assert counts["flap_draws_batched"] <= distinct
    assert counts["flap_draws_batched"] + counts["flap_draws_single"] \
        <= 1.5 * distinct, (counts, distinct)


def test_flap_hour_sequential_walk_draws_one_batch_per_hour():
    """The campaign's walk: after the first hour (one stream per key),
    each hour is one first_uniforms call and no single-stream draw."""
    injector = _heavy_injector()
    calls = []
    first_uniforms = injector._seeds.first_uniforms

    def counting(labels):
        calls.append(len(labels))
        return first_uniforms(labels)
    injector._seeds.first_uniforms = counting
    rnd = random.Random(3)
    keys = [(link_id, direction) for link_id in range(25)
            for direction in (0, 1)]
    ts0 = float(CAMPAIGN_START // HOUR * HOUR)
    for hour in range(30):
        for link_id, direction in rnd.sample(keys, len(keys)):
            injector.link_flap_utilization(
                link_id, direction, ts0 + hour * HOUR + rnd.uniform(0, HOUR))
    assert calls == [len(keys)] * 29
    assert injector.take_draw_counts() == {
        "flap_draws_batched": 29 * len(keys),
        "flap_draws_single": len(keys)}


# ----------------------------------------------------------------------
# the fault matrix: every kind through its real injection site


def _run_faulty_campaign(fault_plan, seed=23, days=1, n_servers=6):
    scenario = build_scenario(seed=seed, scale=0.05, stories=False,
                              faults=fault_plan)
    clasp = scenario.clasp
    ids = [s.server_id
           for s in scenario.catalog.servers(country="US")[:n_servers]]
    plan = clasp.orchestrator.deploy_topology(
        "us-west1", ids, float(CAMPAIGN_START))
    dataset = clasp.run_campaign([plan], days=days)
    return scenario, plan, dataset


_MATRIX = {
    FaultKind.VM_PREEMPTION: FaultPlan(vm_preemption_per_hour=0.2,
                                       slow_start_max_hours=0),
    FaultKind.VM_SLOW_START: FaultPlan(vm_preemption_per_hour=0.2,
                                       slow_start_max_hours=3),
    FaultKind.SPEEDTEST_FAILURE: FaultPlan(speedtest_failure_rate=0.9,
                                           max_retries=0),
    FaultKind.TRUNCATED_TRANSFER: FaultPlan(truncated_transfer_rate=0.9,
                                            max_retries=0),
    FaultKind.UPLOAD_FAILURE: FaultPlan(upload_failure_rate=0.9,
                                        max_retries=0),
    FaultKind.LINK_FLAP: FaultPlan(link_flap_per_hour=0.5),
}


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
def test_fault_matrix_campaign_survives(kind):
    """Each fault kind fires at its site; the campaign still completes
    and losses are tagged rather than raised."""
    scenario, plan, dataset = _run_faulty_campaign(_MATRIX[kind])
    injector = scenario.clasp.fault_injector
    assert injector.summary()[kind.value] > 0, \
        f"{kind.value} never injected - site not wired?"
    # The campaign ran to its full length and produced usable data.
    assert dataset.n_days == 1
    assert dataset.completed_tests > 0
    expected_slots = len(plan.server_ids) * 24
    assert (dataset.completed_tests + dataset.failed_tests
            + sum(1 for r in dataset.lost
                  if r.reason in ("preemption", "slow-start"))
            == expected_slots)


def test_matrix_speedtest_failures_tag_lost_slots():
    _sc, _plan, dataset = _run_faulty_campaign(
        _MATRIX[FaultKind.SPEEDTEST_FAILURE])
    reasons = dataset.lost_by_reason()
    assert reasons.get("speedtest", 0) > 0
    assert dataset.failed_tests == reasons["speedtest"]


def test_matrix_upload_failures_tag_lost_hours():
    _sc, plan, dataset = _run_faulty_campaign(
        _MATRIX[FaultKind.UPLOAD_FAILURE])
    reasons = dataset.lost_by_reason()
    assert reasons.get("upload", 0) > 0
    # Lost uploads leave no bucket object for that VM-hour.
    assert len(plan.bucket) < len(plan.vms) * 24


def test_matrix_retries_recover_most_tests():
    """With the retry budget on, a high transient failure rate still
    yields near-complete coverage - and the retries are counted."""
    _sc, plan, dataset = _run_faulty_campaign(
        FaultPlan(speedtest_failure_rate=0.3, max_retries=3))
    expected = len(plan.server_ids) * 24
    assert dataset.retried_tests > 0
    assert dataset.completed_tests >= 0.95 * expected


# ----------------------------------------------------------------------
# preemption recovery (the acceptance scenario)


def test_preemption_recovery_end_to_end():
    """A mid-campaign preemption yields a completed campaign with the
    lost hours marked and a replacement VM measuring the same list."""
    scenario, plan, dataset = _run_faulty_campaign(
        FaultPlan(vm_preemption_per_hour=0.1, slow_start_max_hours=2),
        days=2)
    platform = scenario.clasp.platform
    preempted = [vm for vm in platform.vms(running_only=False)
                 if vm.status is VMStatus.PREEMPTED]
    assert preempted, "no VM was ever preempted at 10%/hour over 2 days"

    reasons = dataset.lost_by_reason()
    assert reasons.get("preemption", 0) > 0
    # Replacements carry the -r<n> suffix and took over the plan slot.
    replacements = [vm for vm in plan.vms if "-r" in vm.name]
    assert replacements
    for vm in replacements:
        assert vm.is_running or vm.status is VMStatus.PREEMPTED
        # The replacement measures a full assignment from the plan.
        assert next(ids for v, ids in plan.assignments if v is vm)
    # No preempted VM still owns an assignment.
    assert not {vm.name for vm in preempted} & \
        {vm.name for vm in plan.vms}
    # The campaign still produced data for every server in the plan.
    measured = {pair[1] for pair in dataset.pairs()}
    assert measured == set(plan.server_ids)
    # Analyses degrade gracefully on the thinned dataset.
    report = detect(dataset)
    assert 0.0 <= report.congested_day_fraction <= 1.0


def test_slow_start_hours_are_marked():
    scenario, _plan, dataset = _run_faulty_campaign(
        _MATRIX[FaultKind.VM_SLOW_START], days=2)
    summary = scenario.clasp.fault_injector.summary()
    reasons = dataset.lost_by_reason()
    if summary["vm-slow-start"]:
        assert reasons.get("slow-start", 0) > 0


# ----------------------------------------------------------------------
# same-seed reproducibility with faults enabled


def test_faulty_campaign_is_reproducible():
    from repro.core.export import dataset_digest
    plan = FaultPlan.heavy()
    _s1, _p1, ds1 = _run_faulty_campaign(plan, seed=31)
    _s2, _p2, ds2 = _run_faulty_campaign(plan, seed=31)
    assert dataset_digest(ds1) == dataset_digest(ds2)
    assert ds1.lost == ds2.lost
    assert ds1.retried_tests == ds2.retried_tests


# ----------------------------------------------------------------------
# prefetched first-attempt test decisions


_RATES = {
    FaultKind.VM_PREEMPTION: "vm_preemption_per_hour",
    FaultKind.SPEEDTEST_FAILURE: "speedtest_failure_rate",
    FaultKind.TRUNCATED_TRANSFER: "truncated_transfer_rate",
    FaultKind.UPLOAD_FAILURE: "upload_failure_rate",
    FaultKind.LINK_FLAP: "link_flap_per_hour",
}


def _heavy_campaign(batch):
    """Two heavy-plan days of one full VM (17 servers, so each lane-hour
    has 34 test-decision labels to prefetch)."""
    scenario = build_scenario(seed=29, scale=0.05, stories=False,
                              faults=FaultPlan.heavy())
    clasp = scenario.clasp
    ids = [s.server_id for s in scenario.catalog.servers(country="US")[:17]]
    plan = clasp.orchestrator.deploy_topology("us-west1", ids,
                                              float(CAMPAIGN_START))
    dataset = clasp.run_campaign([plan], days=2, batch=batch)
    return clasp.fault_injector, dataset


def _event_order(event):
    return (event.ts, event.kind.value, event.key)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
def test_prefetched_test_decisions_match_single_stream_draws(batch,
                                                             monkeypatch):
    from repro.core.export import dataset_digest
    prefetched, streams = [], []
    prefetch = FaultInjector.prefetch_test_decisions
    generator = SeedTree.generator

    def spy(self, vm_name, tests):
        prefetch(self, vm_name, tests)
        prefetched.append(len(self._test_draws))

    def counting(self, label, **kwargs):
        if label.startswith(("speedtest-failure/", "truncated-transfer/")):
            streams.append(label)
        return generator(self, label, **kwargs)
    monkeypatch.setattr(FaultInjector, "prefetch_test_decisions", spy)
    monkeypatch.setattr(SeedTree, "generator", counting)
    injector, dataset = _heavy_campaign(batch)
    prefetched_streams = len(streams)
    assert prefetched and min(prefetched) == 34
    # Every consumed decision is its stream's first draw against the rate.
    fresh = FaultInjector(injector.plan, injector._seeds)
    for (kind, key, ts), hit in injector._cache.items():
        rate = getattr(injector.plan, _RATES[kind])
        assert hit == (fresh._stream(kind, key, ts).random() < rate)
    # Nothing prefetched outlives its lane-hour.
    assert injector._test_draws == {}
    # The same campaign drawing every decision from its own stream.
    monkeypatch.setattr(FaultInjector, "prefetch_test_decisions",
                        lambda self, vm_name, tests: None)
    streams.clear()
    baseline, base_dataset = _heavy_campaign(batch)
    # Only retries (and truncation fractions) still build a generator.
    assert 0 < prefetched_streams < len(streams) / 3
    assert injector.summary() == baseline.summary()
    assert sorted(injector.events, key=_event_order) == \
        sorted(baseline.events, key=_event_order)
    assert dataset_digest(dataset) == dataset_digest(base_dataset)
