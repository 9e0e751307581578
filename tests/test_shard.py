"""Batch-equivalence harness: the vectorized path is byte-exact.

Three layers of proof that :mod:`repro.shard` changes *how fast* the
campaign runs and nothing else:

* **Golden digests** - the committed ``tests/golden/digests.json``
  digests reproduce with ``batch`` on and off, faults off and default
  (the same file the inline golden tests pin, so scalar and batch runs
  are transitively equal).
* **Event streams** - a multi-lane, two-region campaign under each
  fault plan emits the *identical* event sequence (every payload, in
  order) through the batch planner and the inline scalar path, to
  every subscriber on the bus.
* **Differential campaigns** - premium and standard-tier VMs on a
  world with the differential story applied give the same digest on
  both paths under each fault plan.
* **Vector oracles** - every numpy twin in :mod:`repro.shard.vectcp`
  matches its scalar counterpart elementwise with 0 ULP drift over
  dense random grids, including the link-flap hook interaction.

Plus the fault-replay invariant (the batch path injects the scalar
path's faults under the heavy plan), an oracle holding the planner's
column-wise route fold to the scalar per-route left fold, and a unit
test for the batch planner's refuse-to-desync strictness.
"""

import json
import math
import pathlib

import numpy as np
import pytest

import repro.obs as obs
import repro.shard.vectcp as vectcp
from repro.cloud.api import CloudPlatform
from repro.cloud.tiers import NetworkTier
from repro.core.export import dataset_digest
from repro.core.clasp import Clasp
from repro.alerts import default_rules
from repro.engine.events import BillingCharged, event_payload
from repro.engine.events import TestCompleted as CompletedEvent
from repro.engine.events import TestRetried as RetriedEvent
from repro.errors import ValidationError
from repro.experiments import Pipeline
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan
from repro.netsim.linkstate import LinkStateEvaluator
from repro.netsim.tcp import multiflow_throughput_mbps, pftk_throughput_mbps
from repro.netsim.topology import LinkKind
from repro.netsim.traffic import DiurnalProfile, UtilizationModel
from repro.shard import (batch_flows_for_rtt, batch_loss_rate, batch_mean_utilization_grid,
                         batch_multiflow_throughput_mbps,
                         batch_pftk_throughput_mbps, batch_queue_delay_ms,
                         batch_residual_mbps, batch_weekend_mask)
from repro.shard.batch import BatchPlanner, fold_routes
from repro.simclock import CAMPAIGN_START, is_weekend
from repro.speedtest import protocol
from repro.units import DAY, HOUR

from .traffic_profiles import daytime_profile, evening_profile

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden"
                     / "digests.json").read_text(encoding="utf-8"))

# Keep in sync with scripts/regen_golden.py / tests/test_golden.py.
SEED, SCALE, REGION, BUDGET_SERVERS, DAYS = 11, 0.05, "us-west1", 8, 2


class _StreamCollector:
    """Bus subscriber recording every event as its payload dict."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append((event.kind, event_payload(event)))


def _assert_same_streams(collectors):
    """Every subscriber on one bus received the same non-empty stream."""
    assert collectors[0].events
    for collector in collectors[1:]:
        assert collector.events == collectors[0].events


def _golden_campaign(faults, batch, observers=(), days=DAYS):
    scenario = build_scenario(seed=SEED, scale=SCALE, faults=faults)
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    return clasp.run_campaign([plan], days=days, observers=observers,
                              batch=batch)


# ----------------------------------------------------------------------
# golden digests: both execution modes reproduce the committed bytes,
# with 1 or 4 passive subscribers on the bus - each gets the same
# stream and none of them perturbs the dataset


@pytest.mark.parametrize("subscribers", [1, 4])
@pytest.mark.parametrize("batch", [False, True])
def test_golden_digest_faults_off(subscribers, batch):
    collectors = [_StreamCollector() for _ in range(subscribers)]
    dataset = _golden_campaign(None, batch, observers=collectors)
    assert dataset_digest(dataset) == GOLDEN["faults_off"]
    _assert_same_streams(collectors)


@pytest.mark.parametrize("subscribers", [1, 4])
@pytest.mark.parametrize("batch", [False, True])
def test_golden_digest_faults_default(subscribers, batch):
    collectors = [_StreamCollector() for _ in range(subscribers)]
    dataset = _golden_campaign(FaultPlan.default(), batch,
                               observers=collectors)
    assert dataset_digest(dataset) == GOLDEN["faults_default"]
    _assert_same_streams(collectors)


def test_batch_run_with_obs_enabled_matches_golden():
    """Instrumentation on the batch path observes without perturbing."""
    obs.enable()
    try:
        dataset = _golden_campaign(None, batch=True)
        assert dataset_digest(dataset) == GOLDEN["faults_off"]
        counters = obs.snapshot()["counters"]
        assert counters["shard.hours_planned"] == DAYS * 24
        assert counters["speedtest.tests"] == dataset.completed_tests
        # Every route link at every test instant, ingress and egress.
        assert counters["shard.link_observations"] == 4416
        assert counters["netsim.tcp.transfers"] == \
            2 * dataset.completed_tests
    finally:
        obs.disable()


def test_obs_metrics_match_between_batch_and_scalar():
    """With obs on, both paths publish the same engine.* counters and
    histograms and the same speedtest test and failure counts."""
    published = []
    for batch in (False, True):
        obs.enable()
        try:
            # Failure-heavy, so every slot outcome shows up.
            _golden_campaign(FaultPlan(speedtest_failure_rate=0.4,
                                       vm_preemption_per_hour=0.05),
                             batch)
            snapshot = obs.snapshot()
        finally:
            obs.disable()
        published.append((
            {name: value for name, value in snapshot["counters"].items()
             if name.startswith("engine.")
             or name in ("speedtest.tests", "speedtest.failures")},
            {name: value for name, value in snapshot["histograms"].items()
             if name.startswith("engine.")}))
    scalar, batch = published
    assert scalar[0]["speedtest.failures"] > 0
    assert scalar[0]["engine.events.test-retried"] > 0
    assert scalar[0]["engine.lost.preemption"] > 0
    assert scalar[0]["engine.events.test-completed"] > 0
    assert scalar[1]
    assert batch == scalar


def test_monitored_batch_run_builds_no_per_test_event(monkeypatch):
    """A batch campaign whose subscribers all take test blocks whole
    (dataset, billing, streaming detector, collector) constructs no
    TestCompleted, no TestRetried and no per-test (egress)
    BillingCharged: nobody asks for the blocks' expansion."""
    built = []
    for cls in (CompletedEvent, RetriedEvent, BillingCharged):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built.append((self.kind, getattr(self, "category", None)))
        monkeypatch.setattr(cls, "__init__", counting)
    scenario = build_scenario(seed=SEED, scale=SCALE,
                              faults=FaultPlan.default())
    clasp = scenario.clasp
    plan = clasp.deploy_topology(REGION,
                                 clasp.select_topology_servers(REGION),
                                 budget_servers=BUDGET_SERVERS)
    _detector, detector_observer = clasp.streaming_detector()
    collector, collector_observer = clasp.collector(rules=default_rules())
    dataset = clasp.run_campaign(
        [plan], days=DAYS, batch=True,
        observers=[detector_observer, collector_observer])
    assert dataset_digest(dataset) == GOLDEN["faults_default"]
    assert dataset.retried_tests > 0
    assert collector.detector.observed == dataset.completed_tests
    assert clasp.platform.costs.spend["egress"] > 0
    assert built and set(built) == {("billing-charged", "vm_hours"),
                                    ("billing-charged", "intra_region")}


def test_batch_run_across_noise_growth_matches_scalar(monkeypatch):
    """Link noise is drawn one day first, then doubled (24 -> 48 -> 96
    hours): a 3-day batch run crosses both growths, and the planner
    re-fetches its noise arrays once per growth, never per hour."""
    refetches = []
    refresh = BatchPlanner._refresh_noise

    def counting(self, hours, model):
        refetches.append(hours)
        refresh(self, hours, model)

    monkeypatch.setattr(BatchPlanner, "_refresh_noise", counting)
    days = 3
    scalar, batch = _StreamCollector(), _StreamCollector()
    scalar_digest = dataset_digest(
        _golden_campaign(None, False, observers=[scalar], days=days))
    assert not refetches
    batch_digest = dataset_digest(
        _golden_campaign(None, True, observers=[batch], days=days))
    assert batch_digest == scalar_digest
    assert batch.events == scalar.events
    hours = days * 24
    assert max(refetches) > 2 * UtilizationModel.FIRST_DRAW_HOURS
    assert len(refetches) <= math.log2(hours)


# ----------------------------------------------------------------------
# event streams: multi-lane, two-region campaigns under each fault plan


MATRIX_REGIONS = ("us-west1", "us-east1")
_FAULT_PLANS = {"off": lambda: None, "default": FaultPlan.default,
                "heavy": FaultPlan.heavy}


def _matrix_campaign(faults, batch, subscribers=1):
    scenario = build_scenario(seed=7, scale=SCALE, faults=faults)
    clasp = scenario.clasp
    plans = [clasp.deploy_topology(region,
                                   clasp.select_topology_servers(region),
                                   budget_servers=20)
             for region in MATRIX_REGIONS]
    assert sum(len(plan.assignments) for plan in plans) >= 4
    collectors = [_StreamCollector() for _ in range(subscribers)]
    dataset = clasp.run_campaign(plans, days=1, observers=collectors,
                                 batch=batch)
    _assert_same_streams(collectors)
    return dataset, collectors[0].events, clasp


@pytest.fixture(scope="module")
def matrix_baseline():
    """Inline scalar event streams + digests, one per fault plan."""
    out = {}
    for key, make_plan in _FAULT_PLANS.items():
        dataset, events, clasp = _matrix_campaign(make_plan(), False)
        out[key] = (dataset_digest(dataset), events, dataset, clasp)
    # The heavy plan must actually exercise the fault interactions the
    # batch path has to replicate (preemptions, truncations, retries).
    heavy = out["heavy"][3].fault_injector.summary()
    assert heavy["vm-preemption"] > 0
    assert heavy["truncated-transfer"] > 0
    assert out["heavy"][2].retried_tests > 0
    return out


# A fresh scalar run (2 subscribers) and a batch run (4 subscribers)
# must both hand every subscriber the inline scalar baseline's stream.
@pytest.mark.parametrize("faults_key", ["off", "default", "heavy"])
@pytest.mark.parametrize("subscribers,batch", [(2, False), (4, True)])
def test_event_stream_matches_inline(matrix_baseline, faults_key,
                                     subscribers, batch):
    digest, events, _dataset, _clasp = matrix_baseline[faults_key]
    dataset, got_events, _ = _matrix_campaign(
        _FAULT_PLANS[faults_key](), batch, subscribers=subscribers)
    assert got_events == events
    assert dataset_digest(dataset) == digest


def test_batch_replays_heavy_fault_decisions(matrix_baseline):
    """Under the heavy plan the batch path injects exactly the scalar
    path's faults.  The events are compared as a sorted list: their log
    order already differs between the two paths and no output reads
    it."""
    scalar = matrix_baseline["heavy"][3].fault_injector
    _dataset, _events, clasp = _matrix_campaign(FaultPlan.heavy(), True)
    batch = clasp.fault_injector

    def key(event):
        return (event.kind.value, event.key, event.ts)

    assert sorted(map(key, batch.events)) == sorted(map(key, scalar.events))
    assert batch.summary() == scalar.summary()


# ----------------------------------------------------------------------
# differential campaigns: standard-tier VMs on a world with the
# differential story applied

#: ``Pipeline(seed=11, scale=0.08, days=2)``'s differential dataset
#: digest on the scalar path.
DIFFERENTIAL_DIGEST = ("e51ba493bd01bf17649d574b2ea9d19b"
                       "fedea8af064ea177f0725dd46e9bdcb1")


@pytest.fixture(scope="module")
def speedchecker_medians():
    """The differential study of the fault-free world, run once; its
    pipeline's own (batch) differential campaign is the scalar one."""
    pipeline = Pipeline(seed=11, scale=0.08, days=2)
    assert dataset_digest(pipeline.differential_dataset()) == \
        DIFFERENTIAL_DIGEST
    return pipeline.clasp.speedchecker_medians()


@pytest.mark.parametrize("faults_key", ["off", "default", "heavy"])
def test_differential_campaign_batch_matches_scalar(
        speedchecker_medians, monkeypatch, faults_key):
    """Both paths give the same bytes on a differential deployment.

    Every world reuses the fault-free study's medians rather than
    re-running the study (tens of seconds under a fault plan), so both
    paths select, story and deploy the same servers."""
    monkeypatch.setattr(Clasp, "speedchecker_medians",
                        lambda self: speedchecker_medians)
    digests = []
    for batch in (False, True):
        pipeline = Pipeline(seed=11, scale=0.08, days=2,
                            faults=_FAULT_PLANS[faults_key]())
        plans = [pipeline.differential_plan(region)
                 for region in pipeline.differential_regions]
        dataset = pipeline.clasp.run_campaign(plans, days=2, batch=batch)
        assert dataset.pairs(tier=NetworkTier.STANDARD)
        digests.append(dataset_digest(dataset))
    assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# batch planner strictness


def test_batch_planner_refuses_unplanned_slot():
    """A planned hour must cover every stepped lane's slots - a silent
    scalar fallback would consume the lane's RNG stream twice and
    desync every later draw, so the planner raises instead."""
    scenario = build_scenario(seed=SEED, scale=SCALE)
    clasp = scenario.clasp
    plan = clasp.deploy_topology(REGION,
                                 clasp.select_topology_servers(REGION),
                                 budget_servers=BUDGET_SERVERS)
    runner = clasp.runner
    start = float(CAMPAIGN_START)
    lanes = runner.build_lanes([plan], start)
    planner = BatchPlanner(runner, lanes)
    assert planner.slots_for(lanes[0], start)
    outcomes, results = planner.take_block(lanes[0])
    assert len(outcomes) == len(planner.slots_for(lanes[0], start))
    assert len(results.ts) == outcomes.count(None)
    # A lane-hour's slots are taken once: a second take is unplanned.
    with pytest.raises(ValidationError, match="no outcome"):
        planner.take_block(lanes[0])


def test_batch_run_routes_each_pair_key_once(monkeypatch):
    """The planner asks the platform for a route pair the first time
    its key (VM host PoP, remote PoP, tier) comes up, not once per
    test."""
    scenario = build_scenario(seed=SEED, scale=SCALE)
    clasp = scenario.clasp
    plan = clasp.deploy_topology(REGION,
                                 clasp.select_topology_servers(REGION),
                                 budget_servers=BUDGET_SERVERS)
    keys = []
    route_pair = CloudPlatform.route_pair

    def counting(self, vm, remote_pop_id, data_direction, flow_id=0):
        keys.append((vm.nic.host_pop_id, remote_pop_id, vm.tier))
        return route_pair(self, vm, remote_pop_id, data_direction, flow_id)

    monkeypatch.setattr(CloudPlatform, "route_pair", counting)
    dataset = clasp.run_campaign([plan], days=DAYS, batch=True)
    assert dataset_digest(dataset) == GOLDEN["faults_off"]
    assert keys and len(keys) == len(set(keys))
    assert dataset.completed_tests > len(keys)


# ----------------------------------------------------------------------
# route fold: the column-wise fold is the scalar per-route left fold


def _scalar_route_stats(start, length, link_ids, queue, loss, residual):
    """Reference: one route's scalar left fold in route order, keeping
    the *first* strict minimum residual as the bottleneck link."""
    q_sum = 0.0
    survive = 1.0
    avail = float("inf")
    bottleneck = -1
    for flat in range(start, start + length):
        q_sum += float(queue[flat])
        survive *= (1.0 - float(loss[flat]))
        r = float(residual[flat])
        if r < avail:
            avail = r
            bottleneck = int(link_ids[flat])
    return q_sum, survive, avail, bottleneck


def _assert_fold_matches_scalar(lengths, link_ids, queue, loss, residual):
    __tracebackhide__ = True
    lengths = np.asarray(lengths, dtype=np.int64)
    valid = np.arange(lengths.max()) < lengths[:, None]
    q_sum, survive, avail, col = fold_routes(queue, loss, residual, valid)
    links = np.full(valid.shape, -1)
    links[valid] = link_ids
    bottleneck = np.where(col >= 0, links[np.arange(len(col)), col], -1)
    got = list(zip(q_sum.tolist(), survive.tolist(), avail.tolist(),
                   bottleneck.tolist()))
    starts = np.cumsum(lengths) - lengths
    want = [_scalar_route_stats(int(s), int(n), link_ids, queue, loss,
                                residual)
            for s, n in zip(starts, lengths)]
    assert got == want


def test_fold_routes_matches_scalar_left_fold():
    # Mixed lengths (1 up to 40, so long routes leave every short one an
    # all-padding tail) and queue magnitudes spanning nine decades,
    # where any other summation order rounds differently.
    rng = np.random.default_rng(9)
    lengths = [1, 3, 40, 1, 7, 2, 17, 1, 25, 4]
    n = sum(lengths)
    queue = 10.0 ** rng.uniform(-6.0, 3.0, n)
    loss = rng.uniform(0.0, 0.4, n)
    residual = rng.uniform(1.0, 1e4, n)
    link_ids = rng.permutation(10 * n)[:n]
    _assert_fold_matches_scalar(lengths, link_ids, queue, loss, residual)


def test_fold_routes_ties_pick_the_first_link():
    # Equal minima inside a route: the earlier link is the bottleneck.
    residual = np.array([5.0, 3.0, 3.0, 7.0, 2.0, 2.0, 2.0, 9.0])
    link_ids = np.array([40, 11, 12, 13, 90, 21, 22, 30])
    queue = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    loss = np.array([0.0, 0.01, 0.02, 0.0, 0.3, 0.0, 0.05, 0.0])
    _assert_fold_matches_scalar([4, 1, 2, 1], link_ids, queue, loss,
                                residual)


def test_fold_routes_padding_is_an_exact_identity():
    # A route with no links, or whose only residual is +inf, keeps the
    # scalar start values (no bottleneck), and a short route next to a
    # long one reads only padding past its end.
    queue = np.array([0.0, 1.5, 2.25, 1e-9, 3.0])
    loss = np.array([0.0, 0.5, 0.0, 0.25, 0.125])
    residual = np.array([np.inf, 8.0, 4.0, 4.0, 1.0])
    link_ids = np.array([1, 2, 3, 4, 5])
    _assert_fold_matches_scalar([0, 1, 4, 0], link_ids, queue, loss,
                                residual)
    _assert_fold_matches_scalar([1, 4], link_ids, queue, loss, residual)


# ----------------------------------------------------------------------
# vector oracles: 0 ULP drift against the scalar hot path


def _assert_zero_ulp(batch_values, scalar_fn, *arg_arrays):
    __tracebackhide__ = True
    for i in range(len(batch_values)):
        scalar = scalar_fn(*(a[i] for a in arg_arrays))
        assert batch_values[i] == scalar, (
            f"element {i}: batch {batch_values[i]!r} != scalar {scalar!r} "
            f"for args {[a[i] for a in arg_arrays]!r}")


def test_batch_pftk_matches_scalar():
    rng = np.random.default_rng(1)
    rtt = rng.uniform(0.2, 400.0, 2000)
    loss = np.concatenate([np.zeros(100), np.full(100, 1e-9),
                           np.full(100, 1e-7),
                           rng.uniform(0.0, 0.95, 1700)])
    out = batch_pftk_throughput_mbps(rtt, loss)
    _assert_zero_ulp(out, lambda r, p: pftk_throughput_mbps(float(r),
                                                            float(p)),
                     rtt, loss)


def test_batch_multiflow_matches_scalar():
    rng = np.random.default_rng(2)
    n = 2000
    rtt = rng.uniform(0.2, 400.0, n)
    loss = rng.uniform(0.0, 0.6, n)
    flows = rng.integers(1, 129, n)
    avail = rng.uniform(0.5, 20000.0, n)
    out = batch_multiflow_throughput_mbps(rtt, loss, flows, avail)
    _assert_zero_ulp(
        out,
        lambda r, p, f, a: multiflow_throughput_mbps(
            float(r), float(p), int(f), float(a)),
        rtt, loss, flows, avail)


def test_batch_flows_for_rtt_matches_scalar():
    rng = np.random.default_rng(3)
    # Include sub-scale RTTs (scale clamps to 1) and exact half-integer
    # products, which banker's rounding resolves to even.
    rtt = np.concatenate([rng.uniform(0.2, 300.0, 1000),
                          np.array([1.0, 12.5, 25.0, 25.0 * 1.5 / 24.0]),
                          protocol.FLOW_SCALE_RTT_MS
                          * (np.arange(1, 50) + 0.5) / protocol.N_FLOWS])
    out = batch_flows_for_rtt(rtt)
    _assert_zero_ulp(out, lambda r: protocol.flows_for_rtt(float(r)), rtt)


def _utilization_grid():
    rng = np.random.default_rng(4)
    return np.concatenate([rng.uniform(0.0, 1.4, 1500),
                           np.array([0.0, 0.5, 0.92, 0.995, 1.0, 1.25])])


@pytest.mark.parametrize("kind", list(LinkKind))
def test_batch_loss_and_queue_match_scalar(kind):
    u = _utilization_grid()
    _assert_zero_ulp(batch_loss_rate(u, kind),
                     lambda x: LinkStateEvaluator.loss_rate(float(x), kind),
                     u)
    _assert_zero_ulp(batch_queue_delay_ms(u, kind),
                     lambda x: LinkStateEvaluator.queue_delay_ms(float(x),
                                                                 kind),
                     u)


def test_batch_residual_matches_scalar():
    u = _utilization_grid()
    for capacity in (40.0, 1000.0, 12345.6):
        _assert_zero_ulp(
            batch_residual_mbps(capacity, u),
            lambda x: LinkStateEvaluator.residual_mbps(capacity, float(x)),
            u)


@pytest.mark.parametrize("profile", [
    DiurnalProfile.quiet(),
    evening_profile(utc_offset_hours=-8.0),
    daytime_profile(utc_offset_hours=5.5),
])
def test_batch_mean_utilization_matches_scalar(profile):
    """The grid twin with one profile on every element."""
    rng = np.random.default_rng(5)
    start = float(CAMPAIGN_START)
    # Dense two-week sweep plus timestamps within one second of local
    # midnight, which force the per-element weekend fallback.
    midnights = (start + np.arange(1, 8) * DAY
                 - profile.utc_offset_hours * HOUR)
    ts = np.concatenate([
        start + rng.uniform(0.0, 14 * DAY, 2000),
        midnights - 0.5, midnights, midnights + 0.5,
    ])

    def column(value):
        return np.full(ts.shape, value)

    bumps = np.array([(b.center_hour, b.width_hours, b.amplitude)
                      for b in profile.bumps])
    out = batch_mean_utilization_grid(
        ts, column(profile.base), column(profile.weekend_factor),
        column(profile.utc_offset_hours),
        *(np.tile(bumps[:, k], (ts.shape[0], 1)) for k in range(3)))
    _assert_zero_ulp(out, lambda t: profile.mean_utilization(float(t)), ts)


def _mixed_profiles():
    return (DiurnalProfile.quiet(),
            evening_profile(utc_offset_hours=-8.0),
            daytime_profile(utc_offset_hours=5.5),
            DiurnalProfile(base=0.3, bumps=()))  # bumpless: all padding


def test_batch_mean_utilization_grid_matches_scalar():
    """The flat mixed-profile batch (the planner's hot path): every
    element carries its own profile parameters, bump columns padded."""
    profiles = _mixed_profiles()
    rng = np.random.default_rng(8)
    start = float(CAMPAIGN_START)
    ts_parts = [start + rng.uniform(0.0, 14 * DAY, 600)]
    for profile in profiles:
        midnights = (start + np.arange(1, 4) * DAY
                     - profile.utc_offset_hours * HOUR)
        ts_parts.extend([midnights - 0.5, midnights, midnights + 0.5])
    ts = np.concatenate(ts_parts)
    n = ts.shape[0]
    chosen = [profiles[i % len(profiles)] for i in range(n)]
    n_bumps = max(len(p.bumps) for p in profiles)
    pad = (0.0, 1.0, 0.0)
    grid = np.array([
        (p.base, p.weekend_factor, p.utc_offset_hours)
        + sum(((b.center_hour, b.width_hours, b.amplitude)
               for b in p.bumps), ())
        + pad * (n_bumps - len(p.bumps))
        for p in chosen])
    out = batch_mean_utilization_grid(ts, grid[:, 0], grid[:, 1],
                                      grid[:, 2], grid[:, 3::3],
                                      grid[:, 4::3], grid[:, 5::3])
    for i in range(n):
        assert out[i] == chosen[i].mean_utilization(float(ts[i]))


def test_batch_weekend_mask_matches_scalar():
    rng = np.random.default_rng(9)
    start = float(CAMPAIGN_START)
    offsets = np.array([-8.0, 0.0, 5.5, 13.0])
    ts_parts = [start + rng.uniform(0.0, 14 * DAY, 400)]
    for offset in offsets:
        midnights = start + np.arange(1, 4) * DAY - offset * HOUR
        ts_parts.extend([midnights - 0.5, midnights, midnights + 0.5])
    ts = np.concatenate(ts_parts)
    off = offsets[np.arange(ts.shape[0]) % offsets.shape[0]]
    mask = batch_weekend_mask(ts, off)
    for i in range(ts.shape[0]):
        assert mask[i] == is_weekend(float(ts[i]), float(off[i]))


def test_batch_weekend_mask_calls_the_scalar_only_at_midnight(monkeypatch):
    """Day arithmetic decides every element more than the margin from a
    local midnight, over several local days and offsets (5.5 h too); the
    scalar call runs only within it, exact at 0.5 s and 1 s either
    side."""
    calls = []

    def counting(ts, utc_offset_hours=0.0):
        calls.append(ts)
        return is_weekend(ts, utc_offset_hours)

    monkeypatch.setattr(vectcp, "is_weekend", counting)
    start = float(CAMPAIGN_START)
    offsets = np.array([-8.0, 0.0, 5.5, 13.0])
    rng = np.random.default_rng(4)
    ts = start + rng.uniform(0.0, 9 * DAY, 4000)
    off = offsets[np.arange(ts.shape[0]) % offsets.shape[0]]
    into = np.mod(ts + off * HOUR, DAY)
    inside = (into > 2.0) & (into < DAY - 2.0)
    ts, off = ts[inside], off[inside]
    mask = batch_weekend_mask(ts, off)
    assert not calls
    assert mask.any() and not mask.all()
    assert mask.tolist() == [is_weekend(t, o)
                             for t, o in zip(ts.tolist(), off.tolist())]

    edge_ts, edge_off = [], []
    for offset in offsets.tolist():
        midnights = start + np.arange(1, 9) * DAY - offset * HOUR
        for shift in (-1.0, -0.5, 0.5, 1.0):
            edge_ts.extend((midnights + shift).tolist())
            edge_off.extend([offset] * midnights.shape[0])
    mask = batch_weekend_mask(np.array(edge_ts), np.array(edge_off))
    assert len(calls) == len(edge_ts)
    assert mask.tolist() == [is_weekend(t, o)
                             for t, o in zip(edge_ts, edge_off)]
