"""repro.obs: spans, metrics registry, exporters, and the campaign
integration (cross-layer span tree + golden digest with obs on)."""

from __future__ import annotations

import io
import json
import types

import pytest

import repro.obs as obs
from repro.core.congestion import detect
from repro.core.export import dataset_digest
from repro.engine import MetricsObserver, TraceObserver
from repro.errors import ConfigError, MissingEntryError, ValidationError
from repro.experiments.runner import ExperimentCache
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan
from repro.obs import (Counter, FlightRecorder, Gauge, Histogram,
                       MetricsRegistry, Tracer)
from repro.obs.metrics import snapshot_percentile
from repro.obs.exporters import (metrics_to_jsonlines,
                                 metrics_to_prometheus, render_span_tree,
                                 spans_to_jsonlines, write_profile)
from repro.obs.spans import NULL_SPAN


@pytest.fixture()
def enabled_obs():
    """Fresh obs state for one test, always disabled afterwards."""
    obs.enable(capacity=64)
    yield obs
    obs.disable()


# ----------------------------------------------------------------------
# metrics primitives


def test_counter_increments_and_rejects_decrease():
    counter = Counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValidationError):
        counter.inc(-1)


def test_gauge_overwrites():
    gauge = Gauge("g")
    gauge.set(4)
    gauge.set(1.5)
    assert gauge.value == 1.5


def test_histogram_bucket_shape():
    hist = Histogram(n_buckets=8)
    for value in (0.25, 1.0, 3.0, 3.9, 1e9):
        hist.add(value)
    snap = hist.snapshot()
    assert snap["count"] == 5
    assert snap["max"] == 1e9
    # 0.25 -> "<1"; 1.0 -> "<2"; 3.0/3.9 -> "<4"; 1e9 -> capped bucket.
    assert snap["buckets"]["<1"] == 1
    assert snap["buckets"]["<2"] == 1
    assert snap["buckets"]["<4"] == 2
    assert snap["buckets"][f"<{2 ** 7}"] == 1
    with pytest.raises(ValidationError):
        hist.add(-0.1)
    with pytest.raises(ValidationError):
        Histogram(n_buckets=0)


def test_registry_get_or_create_and_type_claims():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    registry.gauge("b")
    registry.histogram("h")
    assert registry.n_metrics == 3
    with pytest.raises(ConfigError):
        registry.gauge("a")
    with pytest.raises(ConfigError):
        registry.counter("h")
    with pytest.raises(ValidationError):
        registry.counter("")
    registry.reset()
    assert registry.n_metrics == 0


def test_registry_snapshot_is_sorted_and_detached():
    registry = MetricsRegistry()
    registry.counter("z").inc()
    registry.counter("a").inc(2)
    registry.histogram("lat").add(5.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "z"]
    snap["histograms"]["lat"]["buckets"]["<8"] = 99
    assert registry.snapshot()["histograms"]["lat"]["buckets"]["<8"] == 1


# ----------------------------------------------------------------------
# spans


def test_tracer_nests_spans_and_records_depth():
    tracer = Tracer()
    with tracer.span("outer", layer="campaign", sim_ts=100.0) as outer:
        assert tracer.current is outer
        with tracer.span("inner", layer="netsim") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.depth == 1
    assert tracer.current is None
    finished = tracer.finished()
    assert [span.name for span in finished] == ["inner", "outer"]
    assert tracer.layers() == ["campaign", "netsim"]
    tracer.reset()
    assert tracer.finished() == []


def test_span_error_status_and_propagation():
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.span("boom", layer="tools"):
            raise KeyError("x")
    (span,) = tracer.finished()
    assert span.status == "KeyError"
    assert span.wall_ms >= 0.0


def test_traced_decorator_wraps_function():
    tracer = Tracer()

    @tracer.traced("work", layer="analysis")
    def work(n):
        return n * 2

    assert work(21) == 42
    (span,) = tracer.finished()
    assert (span.name, span.layer) == ("work", "analysis")


def test_span_payload_drops_non_scalar_annotations():
    span_obj = obs.Span(span_id=1, parent_id=None, name="s",
                        layer="other", depth=0)
    span_obj.annotate(ok=True, n=3, blob={"not": "scalar"})
    payload = span_obj.payload()
    assert payload["annotations"] == {"ok": True, "n": 3}
    assert json.loads(json.dumps(payload)) == payload


def test_flight_recorder_bounds_memory():
    recorder = FlightRecorder(capacity=2)
    for i in range(5):
        recorder.record(obs.Span(span_id=i, parent_id=None, name=f"s{i}",
                                 layer="other", depth=0))
    assert len(recorder) == 2
    assert recorder.n_recorded == 5
    assert recorder.n_dropped == 3
    assert [span.name for span in recorder.spans()] == ["s3", "s4"]
    with pytest.raises(ValidationError):
        FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# module-level switch


def test_disabled_obs_is_inert():
    assert not obs.enabled()
    assert obs.span("x") is NULL_SPAN
    with obs.span("x") as sp:
        assert sp.annotate(a=1) is sp
    obs.inc("nope")
    obs.observe("nope", 1.0)
    obs.set_gauge("nope", 1.0)
    assert obs.snapshot() == {"counters": {}, "gauges": {},
                              "histograms": {}}
    with pytest.raises(ConfigError):
        obs.tracer()
    with pytest.raises(ConfigError):
        obs.registry()


def test_enabled_obs_records(enabled_obs):
    assert obs.enabled()
    with obs.span("step", layer="tools", sim_ts=5.0) as sp:
        sp.annotate(n=1)
    obs.inc("hits", 2)
    obs.observe("lat", 3.0)
    obs.set_gauge("depth", 7)
    snap = obs.snapshot()
    assert snap["counters"]["hits"] == 2
    assert snap["gauges"]["depth"] == 7.0
    assert snap["histograms"]["lat"]["count"] == 1
    assert obs.tracer().layers() == ["tools"]


def test_enable_twice_resets_state(enabled_obs):
    obs.inc("hits")
    obs.enable()
    assert obs.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# exporters


def _sample_snapshot():
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(5)
    registry.gauge("lanes").set(2.5)
    hist = registry.histogram("lat")
    for value in (0.5, 3.0, 3.0, 100.0):
        hist.add(value)
    return registry.snapshot()


def test_metrics_jsonlines_round_trip():
    text = metrics_to_jsonlines(_sample_snapshot())
    rows = [json.loads(line) for line in text.splitlines()]
    assert {row["kind"] for row in rows} == {"counter", "gauge",
                                             "histogram"}
    by_name = {row["name"]: row for row in rows}
    assert by_name["cache.hits"]["value"] == 5
    assert by_name["lat"]["count"] == 4
    assert metrics_to_jsonlines({"counters": {}}) == ""


def test_metrics_prometheus_cumulative_buckets():
    text = metrics_to_prometheus(_sample_snapshot())
    lines = text.splitlines()
    assert "# TYPE cache_hits counter" in lines
    assert "cache_hits 5" in lines
    assert "lanes 2.5" in lines
    # 0.5 -> <1; 3.0 x2 -> <4; 100.0 -> <128: cumulative 1, 3, 4.
    assert 'lat_bucket{le="1"} 1' in lines
    assert 'lat_bucket{le="4"} 3' in lines
    assert 'lat_bucket{le="128"} 4' in lines
    assert 'lat_bucket{le="+Inf"} 4' in lines
    assert "lat_sum 106.5" in lines
    assert "lat_count 4" in lines
    assert metrics_to_prometheus({}) == ""


def test_snapshot_percentile_walks_buckets():
    hist = Histogram()
    for value in (0.5, 3.0, 3.0, 100.0):
        hist.add(value)
    snap = hist.snapshot()
    # Ranks: p50 lands in the <4 bucket, p99 in the <128 bucket
    # (capped at the observed max).
    assert snapshot_percentile(snap, 0.5) == 4.0
    assert snapshot_percentile(snap, 0.25) == 1.0
    assert snapshot_percentile(snap, 0.99) == 100.0
    assert hist.percentile(0.99) == 100.0
    assert snapshot_percentile(Histogram().snapshot(), 0.5) == 0.0
    with pytest.raises(ValidationError):
        snapshot_percentile(snap, 0.0)
    with pytest.raises(ValidationError):
        snapshot_percentile(snap, 1.5)


def test_metrics_prometheus_percentile_lines():
    lines = metrics_to_prometheus(_sample_snapshot()).splitlines()
    assert "lat_p50 4" in lines
    assert "lat_p90 100" in lines
    assert "lat_p99 100" in lines


def test_metrics_prometheus_recorder_totals():
    recorder = FlightRecorder(capacity=2)
    for i in range(5):
        recorder.record(types.SimpleNamespace(span_id=i))
    text = metrics_to_prometheus(_sample_snapshot(), recorder=recorder)
    lines = text.splitlines()
    assert "obs_spans_recorded_total 5" in lines
    assert "obs_spans_dropped_total 3" in lines
    assert "# TYPE obs_spans_dropped_total counter" in lines


def test_registry_dump_state_round_trip():
    registry = MetricsRegistry()
    registry.counter("cache.hits").inc(5)
    registry.gauge("lanes").set(2.5)
    hist = registry.histogram("lat")
    for value in (0.5, 3.0, 3.0, 100.0):
        hist.add(value)
    clone = MetricsRegistry()
    clone.restore_state(registry.dump_state())
    assert clone.snapshot() == registry.snapshot()
    assert clone.dump_state() == registry.dump_state()
    # Per-name overwrite: names absent from the dump survive.
    other = MetricsRegistry()
    other.counter("other").inc(7)
    other.restore_state(registry.dump_state())
    assert other.snapshot()["counters"]["other"] == 7
    assert other.snapshot()["counters"]["cache.hits"] == 5


def test_registry_restore_state_rejects_mismatches():
    registry = MetricsRegistry()
    registry.histogram("lat").add(1.0)
    state = registry.dump_state()
    clone = MetricsRegistry()
    clone.counter("lat").inc()
    with pytest.raises(ConfigError):
        clone.restore_state(state)
    bad = MetricsRegistry()
    shape = dict(state["histograms"]["lat"])
    shape["counts"] = shape["counts"][:-1]
    with pytest.raises(ValidationError):
        bad.restore_state({"counters": {}, "gauges": {},
                           "histograms": {"lat": shape}})
    reshaped = MetricsRegistry()
    reshaped.histogram("lat", n_buckets=8)
    with pytest.raises(ValidationError):
        reshaped.restore_state(state)


def test_spans_jsonlines_round_trip():
    tracer = Tracer()
    with tracer.span("outer", layer="campaign", sim_ts=10.0):
        with tracer.span("inner", layer="netsim"):
            pass
    text = spans_to_jsonlines(tracer.finished())
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == 2
    by_name = {row["name"]: row for row in rows}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["sim_ts"] == 10.0
    assert spans_to_jsonlines([]) == ""


def test_render_span_tree_orphans_and_truncation():
    # An orphan (its parent fell off the flight-recorder ring) renders
    # as a root rather than vanishing.
    orphan = obs.Span(span_id=7, parent_id=3, name="orphan",
                      layer="netsim", depth=2)
    root = obs.Span(span_id=8, parent_id=None, name="root",
                    layer="campaign", depth=0, sim_ts=10.0,
                    status="KeyError")
    tree = render_span_tree([orphan, root])
    assert tree.splitlines()[0].startswith("orphan [netsim]")
    assert "root [campaign] 0.000ms sim_ts=10 !KeyError" in tree
    truncated = render_span_tree([orphan, root], max_spans=1)
    assert "(1 more spans)" in truncated
    with pytest.raises(ValidationError):
        render_span_tree([], max_spans=0)
    assert render_span_tree([]) == ""


def test_write_profile_directory(tmp_path, enabled_obs):
    tracer = Tracer(capacity=1)
    with tracer.span("a", layer="tools"):
        pass
    with tracer.span("b", layer="tools"):
        pass
    registry = MetricsRegistry()
    registry.counter("c").inc()
    files = write_profile(tmp_path / "prof", tracer, registry)
    names = sorted(path.name for path in files)
    assert names == ["metrics.jsonl", "metrics.prom", "profile.txt",
                     "spans.jsonl"]
    report = (tmp_path / "prof" / "profile.txt").read_text()
    assert "# hottest spans" in report
    assert "dropped 1 older spans" in report


# ----------------------------------------------------------------------
# engine observer integration


def _event(kind, **fields):
    return types.SimpleNamespace(kind=kind, **fields)


def test_metrics_observer_mirrors_into_registry():
    registry = MetricsRegistry()
    observer = MetricsObserver(registry=registry)
    observer.on_event(_event("test-completed", latency_ms=12.0))
    observer.on_event(_event("test-lost", reason="vm-crash"))
    observer.on_event(_event("billing-charged", category="vm",
                             amount_usd=0.25))
    snap = registry.snapshot()
    assert snap["counters"]["engine.events.test-completed"] == 1
    assert snap["counters"]["engine.lost.vm-crash"] == 1
    assert snap["counters"]["engine.usd.vm"] == 0.25
    assert snap["histograms"]["engine.latency_ms.test-completed"][
        "count"] == 1


def test_metrics_observer_snapshot_is_a_deep_copy():
    observer = MetricsObserver()
    observer.on_event(_event("test-completed", latency_ms=12.0))
    snap = observer.snapshot()
    snap["events"]["test-completed"] = 999
    snap["latency_ms"]["test-completed"]["count"] = 999
    fresh = observer.snapshot()
    assert fresh["events"]["test-completed"] == 1
    assert fresh["latency_ms"]["test-completed"]["count"] == 1


def test_trace_observer_jsonl_round_trip(small_scenario, deploy_us_plan):
    buffer = io.StringIO()
    trace = TraceObserver(buffer)
    plan = deploy_us_plan("us-west1", 4)
    small_scenario.clasp.run_campaign([plan], days=1, observers=(trace,))
    trace.close()
    lines = buffer.getvalue().splitlines()
    assert trace.n_written == len(lines) > 0
    kinds = set()
    for line in lines:
        payload = json.loads(line)
        kinds.add(payload["kind"])
    assert {"hour-started", "test-completed",
            "campaign-finished"} <= kinds


def test_campaign_metrics_raises_when_never_collected():
    cache = ExperimentCache(seed=3, scale=0.05)
    # A dataset injected from outside (here: a prior run without any
    # metrics observer) must produce a clear error, not a KeyError.
    cache._topology_dataset = object()
    with pytest.raises(MissingEntryError,
                       match="available campaign metrics"):
        cache.campaign_metrics("topology")
    with pytest.raises(MissingEntryError, match="unknown campaign"):
        cache.campaign_metrics("nope")


# ----------------------------------------------------------------------
# full-stack integration: the golden campaign with obs enabled

SEED = 11
SCALE = 0.05
REGION = "us-west1"
BUDGET_SERVERS = 8
DAYS = 2


@pytest.fixture(scope="module")
def instrumented_campaign():
    """The golden faults-default campaign, run once with obs on."""
    obs.enable(capacity=100_000)
    try:
        scenario = build_scenario(seed=SEED, scale=SCALE,
                                  faults=FaultPlan.default())
        clasp = scenario.clasp
        selection = clasp.select_topology_servers(REGION)
        plan = clasp.deploy_topology(REGION, selection,
                                     budget_servers=BUDGET_SERVERS)
        dataset = clasp.run_campaign([plan], days=DAYS)
        detect(dataset)  # analysis-layer spans
        return {
            "digest": dataset_digest(dataset),
            "spans": obs.tracer().finished(),
            "layers": obs.tracer().layers(),
            "snapshot": obs.snapshot(),
            "n_dropped": obs.tracer().recorder.n_dropped,
        }
    finally:
        obs.disable()


def test_instrumented_span_tree_covers_all_layers(instrumented_campaign):
    assert {"cloud", "speedtest", "netsim", "analysis", "campaign",
            "selection", "tools"} <= set(instrumented_campaign["layers"])
    assert instrumented_campaign["n_dropped"] == 0
    tree = render_span_tree(instrumented_campaign["spans"],
                            max_spans=10 ** 6)
    assert "campaign.run [campaign]" in tree
    assert "speedtest.run_test [speedtest]" in tree


def test_instrumented_span_parents_resolve(instrumented_campaign):
    spans = instrumented_campaign["spans"]
    by_id = {span.span_id: span for span in spans}
    netsim = [span for span in spans if span.layer == "netsim"]
    assert netsim
    for span in netsim:
        assert by_id[span.parent_id].name == "speedtest.run_test"


def test_instrumented_snapshot_counts_lookup_memos(instrumented_campaign):
    """Selection and campaign fold the pure-lookup memo totals in."""
    counters = instrumented_campaign["snapshot"]["counters"]
    for prefix in ("netsim.linkstate.memo", "netsim.routing.border_memo",
                   "tools.prefix2as.memo"):
        hits = counters[f"{prefix}_hits"]
        misses = counters[f"{prefix}_misses"]
        assert hits > misses > 0, prefix


def test_instrumented_snapshot_counts_flap_draws(instrumented_campaign):
    """The campaign folds in how link-flap decisions were drawn: the
    selection's first hour one stream per key, later hours in batches."""
    counters = instrumented_campaign["snapshot"]["counters"]
    batched = counters["faults.flap_draws_batched"]
    single = counters["faults.flap_draws_single"]
    assert batched > single > 0


def test_instrumented_snapshot_exports_both_formats(
        instrumented_campaign):
    snap = instrumented_campaign["snapshot"]
    assert snap["counters"]["speedtest.tests"] > 0
    assert snap["counters"]["engine.events.test-completed"] > 0
    for line in metrics_to_jsonlines(snap).splitlines():
        json.loads(line)
    prom = metrics_to_prometheus(snap)
    assert 'speedtest_download_mbps_bucket{le="+Inf"}' in prom
    for line in spans_to_jsonlines(
            instrumented_campaign["spans"]).splitlines():
        json.loads(line)


def test_instrumentation_does_not_change_the_golden_digest(
        instrumented_campaign):
    import pathlib
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden"
         / "digests.json").read_text(encoding="utf-8"))
    assert instrumented_campaign["digest"] == golden["faults_default"]
