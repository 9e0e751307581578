"""The campaign engine: bus, events, lanes, and observers.

Unit tests pin the bus/observer contracts (registration-order
dispatch, FIFO nested emission, per-hour dataset flushing); the
campaign-level tests pin the properties the refactor promised: two
same-seed runs publish byte-identical event streams, the metrics
observer reconciles with the dataset's own counters (with and without
faults), and an exhausted-retry upload hour produces exactly one lost
row and zero intra-region charges.
"""

import dataclasses
import json
import typing
from io import StringIO

import pytest

# The Test* event classes are aliased so pytest does not try to
# collect them as test classes.
from repro.engine import (BillingCharged, CampaignEngine, CampaignEvent,
                          CampaignFinished, DatasetObserver, EVENT_KINDS,
                          EventBus, Histogram, HourStarted, Lane,
                          MetricsObserver, Observer, TraceObserver,
                          UploadAttempted, event_payload)
from repro.engine import TestCompleted as CompletedEvent
from repro.engine import TestLost as LostEvent
from repro.engine import TestRetried as RetriedEvent
from repro.engine.events import OPAQUE_FIELDS
from repro.errors import ValidationError
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan
from repro.simclock import CAMPAIGN_START
from repro.units import HOUR

T0 = float(CAMPAIGN_START)


# ----------------------------------------------------------------------
# events


_SCALAR_TYPES = (str, int, float, bool, type(None))


def _is_scalar(annotation):
    args = (typing.get_args(annotation)
            if typing.get_origin(annotation) is typing.Union
            else (annotation,))
    return all(arg in _SCALAR_TYPES for arg in args)


def _handler(kind):
    return "on_" + kind.replace("-", "_")


def _event_problems(event_classes, event_kinds, opaque_fields):
    """Disagreements between event classes and the two registries."""
    problems, kinds = [], {}
    for cls in event_classes:
        kind = vars(cls).get("kind")
        if not isinstance(kind, str):
            problems.append(f"{cls.__name__} declares no literal kind")
            continue
        if kind in kinds:
            problems.append(f"{kinds[kind]} and {cls.__name__} share "
                            f"kind {kind!r}")
        kinds[kind] = cls.__name__
        if kind not in event_kinds:
            problems.append(f"{cls.__name__} is missing from EVENT_KINDS")
        hints = typing.get_type_hints(cls)
        for spec in dataclasses.fields(cls):
            if not (_is_scalar(hints[spec.name])
                    or spec.name in opaque_fields):
                problems.append(f"{cls.__name__}.{spec.name} is neither "
                                f"scalar nor in OPAQUE_FIELDS")
    problems += [f"EVENT_KINDS lists {kind!r}, which no class declares"
                 for kind in event_kinds if kind not in kinds]
    return problems


def _observer_problems(cls, event_kinds):
    """Kinds an observer drops silently, and handlers that match none."""
    name, problems = cls.__name__, []
    ignored = set(cls.IGNORED_EVENTS)
    if cls.on_event is Observer.on_event:
        problems += [f"{name} neither handles nor ignores {kind!r}"
                     for kind in event_kinds
                     if not hasattr(cls, _handler(kind))
                     and kind not in ignored]
    handlers = {_handler(kind) for kind in event_kinds} | {"on_event"}
    problems += [f"{name}.{attr} matches no event kind"
                 for attr in dir(cls)
                 if attr.startswith("on_") and attr not in handlers]
    problems += [f"{name} ignores unknown kind {kind!r}"
                 for kind in sorted(ignored - set(event_kinds))]
    return problems


def test_event_kinds_are_unique_and_stable(repro_subclasses):
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
    assert "test-completed" in EVENT_KINDS
    assert "hour-started" in EVENT_KINDS

    # Every event class and observer in the package agrees with
    # EVENT_KINDS, OPAQUE_FIELDS and the IGNORED_EVENTS declarations.
    events = repro_subclasses(CampaignEvent)
    assert {CompletedEvent, HourStarted} <= set(events)
    assert _event_problems(events, EVENT_KINDS, OPAQUE_FIELDS) == []
    observers = repro_subclasses(Observer)
    assert DatasetObserver in observers
    for observer in observers:
        assert _observer_problems(observer, EVENT_KINDS) == []

    # ... and the checks trip on deliberately broken classes.
    @dataclasses.dataclass(frozen=True)
    class Unlisted(CampaignEvent):
        kind: typing.ClassVar[str] = "hour-started"
        blob: object = None

    class Kindless(CampaignEvent):
        pass

    assert _event_problems([HourStarted, Unlisted, Kindless],
                           ("hour-started", "ghost"), OPAQUE_FIELDS) == [
        "HourStarted and Unlisted share kind 'hour-started'",
        "Unlisted.blob is neither scalar nor in OPAQUE_FIELDS",
        "Kindless declares no literal kind",
        "EVENT_KINDS lists 'ghost', which no class declares",
    ]
    assert _event_problems([HourStarted, CompletedEvent],
                           ("hour-started",), frozenset()) == [
        "TestCompleted is missing from EVENT_KINDS",
        "TestCompleted.record is neither scalar nor in OPAQUE_FIELDS",
    ]

    class Sloppy(DatasetObserver):
        IGNORED_EVENTS = ("billing-charged", "ghost")

        def on_test_finished(self, event):
            pass

    assert _observer_problems(Sloppy, EVENT_KINDS) == [
        "Sloppy neither handles nor ignores 'upload-attempted'",
        "Sloppy neither handles nor ignores 'vm-preempted'",
        "Sloppy neither handles nor ignores 'vm-replaced'",
        "Sloppy.on_test_finished matches no event kind",
        "Sloppy ignores unknown kind 'ghost'",
    ]


def test_event_payload_keeps_scalars_drops_opaque():
    event = CompletedEvent(ts=T0, region="us-west1", vm_name="vm-0",
                          server_id="s1", tier="premium", latency_ms=12.5,
                          download_mbps=900.0, upload_mbps=400.0,
                          upload_bytes=1e8, artefact_bytes=1234,
                          record=object())
    payload = event_payload(event)
    assert payload["kind"] == "test-completed"
    assert payload["latency_ms"] == 12.5
    assert "record" not in payload
    json.dumps(payload)  # must be serializable


# ----------------------------------------------------------------------
# bus


def test_bus_dispatches_in_registration_order():
    bus = EventBus()
    calls = []
    bus.subscribe(lambda e: calls.append(("first", e.kind)))
    bus.subscribe(lambda e: calls.append(("second", e.kind)))
    bus.emit(HourStarted(ts=T0, hour_index=0))
    assert calls == [("first", "hour-started"), ("second", "hour-started")]
    assert bus.n_emitted == 1
    assert bus.n_subscribers == 2


def test_bus_nested_emit_is_fifo():
    bus = EventBus()
    seen = []

    def reemitter(event):
        if event.kind == "hour-started":
            bus.emit(BillingCharged(ts=event.ts, category="vm_hours",
                                    amount_usd=1.0))

    bus.subscribe(reemitter)
    bus.subscribe(lambda e: seen.append(e.kind))
    bus.emit(HourStarted(ts=T0, hour_index=0))
    # The nested event is dispatched after the in-flight event finishes
    # its full subscriber pass, never interleaved.
    assert seen == ["hour-started", "billing-charged"]
    assert bus.n_emitted == 2


def test_bus_accepts_observer_objects_and_rejects_junk():
    bus = EventBus()
    observer = MetricsObserver()
    assert bus.subscribe(observer) is observer
    with pytest.raises(ValidationError):
        bus.subscribe(42)


def test_observer_base_dispatches_by_kind():
    class Probe(Observer):
        def __init__(self):
            self.hours = []

        def on_hour_started(self, event):
            self.hours.append(event.hour_index)

    probe = Probe()
    probe.on_event(HourStarted(ts=T0, hour_index=3))
    probe.on_event(CampaignFinished(ts=T0, n_hours=1))  # no hook: ignored
    assert probe.hours == [3]


# ----------------------------------------------------------------------
# lanes + engine loop


def test_lane_replacement_names_count_up():
    lane = Lane(name="vm-7", region="us-west1", schedule=None, vm=None,
                ready_ts=T0)
    assert lane.next_replacement_name() == "vm-7-r1"
    assert lane.next_replacement_name() == "vm-7-r2"
    assert lane.replacements == 2


def test_engine_validates_shape():
    bus = EventBus()
    with pytest.raises(ValidationError):
        CampaignEngine([], stepper=None, bus=bus, start_ts=T0, n_hours=0)
    with pytest.raises(ValidationError):
        CampaignEngine([], stepper=None, bus=bus, start_ts=T0 + 1800.0,
                       n_hours=1)


def test_engine_steps_every_lane_every_hour_in_order():
    lanes = [Lane(name=f"vm-{i}", region="r", schedule=None, vm=None,
                  ready_ts=T0) for i in range(2)]
    steps = []

    class Recorder:
        def step(self, lane, hour_start):
            steps.append((lane.name, hour_start))

    bus = EventBus()
    kinds = []
    bus.subscribe(lambda e: kinds.append(e.kind))
    engine = CampaignEngine(lanes, stepper=Recorder(), bus=bus,
                            start_ts=T0, n_hours=3)
    assert engine.end_ts == T0 + 3 * HOUR
    engine.run()
    assert steps == [(f"vm-{i}", T0 + h * HOUR)
                     for h in range(3) for i in range(2)]
    assert kinds == ["hour-started"] * 3 + ["campaign-finished"]
    assert engine.clock.now == T0 + 2 * HOUR  # advanced to the last hour


# ----------------------------------------------------------------------
# dataset observer (against a minimal duck-typed dataset)


class _FakeDataset:
    def __init__(self):
        self.batches = []
        self.lost = []
        self.failed_tests = 0
        self.retried_tests = 0

    def extend(self, records):
        self.batches.append(list(records))

    def mark_lost(self, ts, region, vm_name, server_id, reason):
        self.lost.append((ts, region, vm_name, server_id, reason))


def _completed(ts, record):
    return CompletedEvent(ts=ts, region="r", vm_name="vm", server_id="s",
                         tier="premium", latency_ms=1.0, download_mbps=1.0,
                         upload_mbps=1.0, upload_bytes=1.0,
                         artefact_bytes=1, record=record)


def test_dataset_observer_batches_per_hour():
    ds = _FakeDataset()
    obs = DatasetObserver(ds)
    obs.on_event(HourStarted(ts=T0, hour_index=0))
    obs.on_event(_completed(T0, "rec-a"))
    obs.on_event(_completed(T0 + 60, "rec-b"))
    assert ds.batches == []  # buffered until the next hour boundary
    obs.on_event(HourStarted(ts=T0 + HOUR, hour_index=1))
    assert ds.batches == [["rec-a", "rec-b"]]
    obs.on_event(_completed(T0 + HOUR, "rec-c"))
    obs.on_event(CampaignFinished(ts=T0 + 2 * HOUR, n_hours=2))
    assert ds.batches == [["rec-a", "rec-b"], ["rec-c"]]


def test_dataset_observer_counters_from_events():
    ds = _FakeDataset()
    obs = DatasetObserver(ds)
    obs.on_event(RetriedEvent(ts=T0, region="r", vm_name="vm",
                             server_id="s", attempts=2))
    obs.on_event(LostEvent(ts=T0, region="r", vm_name="vm",
                          server_id="s", reason="speedtest"))
    obs.on_event(LostEvent(ts=T0, region="r", vm_name="vm",
                          server_id="*", reason="upload"))
    assert ds.retried_tests == 1
    assert ds.failed_tests == 1  # only speedtest losses are failures
    assert [entry[-1] for entry in ds.lost] == ["speedtest", "upload"]


def test_dataset_observer_requires_record_payload():
    obs = DatasetObserver(_FakeDataset())
    with pytest.raises(ValidationError):
        obs.on_event(_completed(T0, record=None))


# ----------------------------------------------------------------------
# histogram + metrics observer


def test_histogram_buckets_and_stats():
    hist = Histogram(n_buckets=4)
    for value in (0.0, 0.5, 1.0, 3.0, 1000.0):
        hist.add(value)
    snap = hist.snapshot()
    assert snap["count"] == 5
    assert snap["max"] == 1000.0
    assert snap["buckets"]["<1"] == 2
    assert snap["buckets"]["<2"] == 1
    assert sum(snap["buckets"].values()) == 5  # overflow capped, not lost
    assert hist.mean == pytest.approx(1004.5 / 5)
    with pytest.raises(ValidationError):
        hist.add(-1.0)
    with pytest.raises(ValidationError):
        Histogram(n_buckets=0)


def test_metrics_observer_counts_and_billing():
    obs = MetricsObserver()
    obs.on_event(_completed(T0, "rec"))
    obs.on_event(LostEvent(ts=T0, region="r", vm_name="vm",
                          server_id="s", reason="speedtest"))
    obs.on_event(BillingCharged(ts=T0, category="egress", amount_usd=2.0))
    obs.on_event(BillingCharged(ts=T0, category="egress", amount_usd=3.0))
    snap = obs.snapshot()
    assert snap["events"]["test-completed"] == 1
    assert obs.count("test-lost") == 1
    assert snap["lost_by_reason"] == {"speedtest": 1}
    assert snap["usd_by_category"] == {"egress": 5.0}
    assert snap["latency_ms"]["test-completed"]["count"] == 1
    assert snap["bytes"]["test-completed"]["count"] == 1


# ----------------------------------------------------------------------
# trace + progress observers


def test_trace_observer_writes_json_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    with TraceObserver(str(path)) as trace:
        trace.on_event(HourStarted(ts=T0, hour_index=0))
        trace.on_event(_completed(T0, object()))  # opaque record
    lines = path.read_text().splitlines()
    assert trace.n_written == len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first["kind"] == "hour-started"
    assert second["kind"] == "test-completed"
    assert "record" not in second


def test_trace_observer_accepts_write_object():
    sink = StringIO()
    trace = TraceObserver(sink)
    trace.on_event(HourStarted(ts=T0, hour_index=0))
    trace.close()  # caller owns the handle: close() must not close it
    assert not sink.closed
    assert json.loads(sink.getvalue())["hour_index"] == 0


# ----------------------------------------------------------------------
# campaign-level properties


class _EventRecorder(Observer):
    """Keeps every event object, in dispatch order."""

    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def _run_campaign(observers, fault_plan=None, seed=23, days=1,
                  n_servers=6):
    scenario = build_scenario(seed=seed, scale=0.05, stories=False,
                              faults=fault_plan)
    clasp = scenario.clasp
    ids = [s.server_id
           for s in scenario.catalog.servers(country="US")[:n_servers]]
    plan = clasp.orchestrator.deploy_topology("us-west1", ids, T0)
    dataset = clasp.run_campaign([plan], days=days, observers=observers)
    return dataset, clasp


def test_same_seed_runs_publish_identical_event_streams():
    streams = []
    for _ in range(2):
        sink = StringIO()
        _run_campaign([TraceObserver(sink)],
                      fault_plan=FaultPlan.default())
        streams.append(sink.getvalue())
    assert streams[0]  # non-empty
    assert streams[0] == streams[1]


@pytest.mark.parametrize("fault_plan", [None, FaultPlan.default()],
                         ids=["faults-off", "faults-default"])
def test_metrics_snapshot_reconciles_with_dataset(fault_plan):
    metrics = MetricsObserver()
    dataset, clasp = _run_campaign([metrics], fault_plan=fault_plan)
    snap = metrics.snapshot()
    assert snap["events"].get("test-completed", 0) == dataset.completed_tests
    assert snap["events"].get("test-retried", 0) == dataset.retried_tests
    assert snap["events"].get("test-lost", 0) == dataset.lost_tests
    assert snap["lost_by_reason"] == dataset.lost_by_reason()
    assert (snap["lost_by_reason"].get("speedtest", 0)
            == dataset.failed_tests)
    assert dataset.completed_tests > 0
    # Billing flowed through the bus: every dollar the cost tracker saw
    # was also published as a BillingCharged event (intra-region
    # transfer is priced at $0, so equality - not positivity - is the
    # meaningful check there).
    spend = clasp.platform.costs.spend_by_category()
    for category, usd in snap["usd_by_category"].items():
        assert usd == pytest.approx(spend[category])
    assert snap["usd_by_category"]["vm_hours"] > 0
    assert snap["usd_by_category"]["egress"] > 0


def test_exhausted_upload_hour_loses_once_and_charges_nothing():
    recorder = _EventRecorder()
    dataset, _ = _run_campaign(
        [recorder],
        fault_plan=FaultPlan(upload_failure_rate=0.95, max_retries=1))
    uploads = [e for e in recorder.events
               if isinstance(e, UploadAttempted)]
    by_key = {}
    for event in uploads:
        by_key.setdefault(event.key, []).append(event)
    exhausted = {key for key, events in by_key.items()
                 if not any(e.ok for e in events)}
    assert exhausted  # the rate guarantees some hours run dry
    # Every failed attempt was still published (bounded retry budget).
    for key in exhausted:
        assert len(by_key[key]) == 2  # max_retries + 1
    # Exactly one lost row per exhausted hour, no duplicates.
    upload_losses = [rec for rec in dataset.lost
                     if rec.reason == "upload"]
    assert len(upload_losses) == len(exhausted)
    assert all(rec.server_id == "*" for rec in upload_losses)
    # Intra-region transfer is only ever billed on a successful upload,
    # so exhausted hours cost nothing.
    intra_charges = [e for e in recorder.events
                     if isinstance(e, BillingCharged)
                     and e.category == "intra_region"]
    ok_uploads = [e for e in uploads if e.ok]
    assert len(intra_charges) == len(ok_uploads)
