"""repro.obs: span totals, metrics registry, exporters, and the campaign
integration (per-name span totals + golden digest with obs on)."""

from __future__ import annotations

import io
import json
import time
import types

import pytest

import repro.obs as obs
from repro.core.congestion import detect
from repro.core.export import dataset_digest
from repro.engine import MetricsObserver, TraceObserver
from repro.errors import ConfigError, ValidationError
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan
from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry,
                       Tracer)
from repro.obs.metrics import snapshot_percentile
from repro.obs.exporters import (metrics_to_jsonlines,
                                 metrics_to_prometheus,
                                 span_totals_to_jsonlines, write_profile)
from repro.obs.spans import NULL_SPAN


@pytest.fixture()
def enabled_obs():
    """Fresh obs state for one test, always disabled afterwards."""
    obs.enable()
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
    snap = registry.snapshot()
    assert [list(snap[kind]) for kind in ("counters", "gauges",
                                          "histograms")] == \
        [["a"], ["b"], ["h"]]
    with pytest.raises(ConfigError):
        registry.gauge("a")
    with pytest.raises(ConfigError):
        registry.counter("h")
    with pytest.raises(ValidationError):
        registry.counter("")


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


@pytest.fixture()
def fake_clock(monkeypatch):
    """``time.perf_counter`` reads 0, 1, 2, ... seconds, one per call."""
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))


def _rows(tracer):
    return {row.name: row for row in tracer.totals()}


def test_tracer_nests_spans_and_records_depth(fake_clock):
    tracer = Tracer()
    with tracer.span("campaign.run"):               # t=0 .. t=7
        with tracer.span("speedtest.run_test"):     # t=1 .. t=4
            with tracer.span("netsim.tcp.transfer"):  # t=2 .. t=3
                pass
        with tracer.span("speedtest.run_test"):     # t=5 .. t=6
            pass
    rows = _rows(tracer)
    assert list(rows) == ["campaign.run", "netsim.tcp.transfer",
                          "speedtest.run_test"]
    assert (rows["campaign.run"].calls, rows["campaign.run"].total_s,
            rows["campaign.run"].self_s) == (1, 7.0, 3.0)
    assert (rows["speedtest.run_test"].calls,
            rows["speedtest.run_test"].total_s,
            rows["speedtest.run_test"].self_s) == (2, 4.0, 3.0)
    assert (rows["netsim.tcp.transfer"].total_s,
            rows["netsim.tcp.transfer"].self_s) == (1.0, 1.0)
    assert rows["netsim.tcp.transfer"].layer == "netsim"
    assert rows["campaign.run"].payload() == {
        "name": "campaign.run", "layer": "campaign", "calls": 1,
        "total_ms": 7000.0, "self_ms": 3000.0, "errors": 0}
    # A span nested in one of its own name adds to the outermost call's
    # total only once, as perfbench's LayerTracer counts recursion.
    with tracer.span("tools.walk"):      # t=8 .. t=11
        with tracer.span("tools.walk"):  # t=9 .. t=10
            pass
    row = _rows(tracer)["tools.walk"]
    assert (row.calls, row.total_s, row.self_s) == (2, 3.0, 3.0)


def test_span_error_status_and_propagation(fake_clock):
    tracer = Tracer()
    with tracer.span("tools.run"):
        pass
    with pytest.raises(KeyError):
        with tracer.span("tools.run"):
            raise KeyError("x")
    (row,) = tracer.totals()
    assert (row.calls, row.errors, row.total_s) == (2, 1, 2.0)


def test_many_spans_leave_one_row_per_name():
    tracer = Tracer()
    names = ("netsim.tcp.transfer", "speedtest.run_test", "cloud.create_vm")
    for i in range(10_000):
        with tracer.span(names[i % 3]):
            pass
    rows = tracer.totals()
    assert len(rows) == 3
    assert sum(row.calls for row in rows) == 10_000
    assert all(row.total_s == row.self_s >= 0.0 for row in rows)


# ----------------------------------------------------------------------
# module-level switch


def test_disabled_obs_is_inert():
    assert not obs.enabled()
    assert obs.span("x") is NULL_SPAN
    with pytest.raises(KeyError):
        with obs.span("x"):
            raise KeyError("propagates")
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
    with obs.span("tools.step"):
        pass
    obs.inc("hits", 2)
    obs.observe("lat", 3.0)
    obs.set_gauge("depth", 7)
    snap = obs.snapshot()
    assert snap["counters"]["hits"] == 2
    assert snap["gauges"]["depth"] == 7.0
    assert snap["histograms"]["lat"]["count"] == 1
    assert [(row.name, row.layer, row.calls)
            for row in obs.tracer().totals()] == [("tools.step", "tools", 1)]


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


def test_spans_jsonlines_round_trip(fake_clock):
    tracer = Tracer()
    with tracer.span("campaign.run"):
        with tracer.span("netsim.tcp.transfer"):
            pass
    text = span_totals_to_jsonlines(tracer.totals())
    rows = [json.loads(line) for line in text.splitlines()]
    assert [row["name"] for row in rows] == ["campaign.run",
                                             "netsim.tcp.transfer"]
    assert rows[0] == {"name": "campaign.run", "layer": "campaign",
                       "calls": 1, "total_ms": 3000.0, "self_ms": 2000.0,
                       "errors": 0}
    assert span_totals_to_jsonlines([]) == ""


def test_write_profile_directory(tmp_path, fake_clock):
    tracer = Tracer()
    with tracer.span("campaign.run"):
        with tracer.span("tools.bdrmap.run"):
            pass
        with tracer.span("tools.bdrmap.run"):
            pass
    with pytest.raises(KeyError):
        with tracer.span("tools.traceroute"):
            raise KeyError("x")
    registry = MetricsRegistry()
    registry.counter("c").inc()
    files = write_profile(tmp_path / "prof", tracer, registry)
    names = sorted(path.name for path in files)
    assert names == ["metrics.jsonl", "metrics.prom", "profile.txt",
                     "spans.jsonl"]
    spans = (tmp_path / "prof" / "spans.jsonl").read_text().splitlines()
    assert len(spans) == 3
    report = (tmp_path / "prof" / "profile.txt").read_text().splitlines()
    layer_at = report.index("# self wall time by layer")
    name_at = report.index("# spans by self wall time")
    assert layer_at < name_at
    # tools: 2 x 1 s bdrmap + 1 s traceroute; campaign: 5 s - 2 s.
    assert report[layer_at + 3].split() == ["campaign", "1", "3000.000",
                                            "50.0%"]
    assert report[layer_at + 4].split() == ["tools", "3", "3000.000",
                                            "50.0%"]
    assert report[name_at + 3].split() == [
        "1", "5000.000", "3000.000", "0", "campaign.run"]
    assert report[-1].split() == ["1", "1000.000", "1000.000", "1",
                                  "tools.traceroute"]


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
    obs.enable()
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
            "rows": {row.name: row for row in obs.tracer().totals()},
            "snapshot": obs.snapshot(),
        }
    finally:
        obs.disable()


def test_instrumented_span_tree_covers_all_layers(instrumented_campaign):
    rows = instrumented_campaign["rows"]
    assert {"cloud", "speedtest", "netsim", "analysis", "campaign",
            "selection", "tools"} <= {row.layer for row in rows.values()}
    assert rows["campaign.run"].calls == 1
    assert rows["selection.topology.run"].calls == 1
    counters = instrumented_campaign["snapshot"]["counters"]
    tests = rows["speedtest.run_test"].calls
    assert tests == (counters["speedtest.tests"]
                     + counters.get("speedtest.failures", 0))
    # One download and one upload transfer per speed test.
    assert rows["netsim.tcp.transfer"].calls == 2 * tests


def test_instrumented_span_parents_resolve(instrumented_campaign):
    """Transfers run inside speed tests, which run inside the campaign:
    each parent's child time (total - self) covers its children."""
    rows = instrumented_campaign["rows"]
    run_test = rows["speedtest.run_test"]
    campaign = rows["campaign.run"]
    slack = 1e-9  # the sums round differently
    assert (run_test.total_s - run_test.self_s + slack
            >= rows["netsim.tcp.transfer"].total_s > 0.0)
    assert (campaign.total_s - campaign.self_s + slack
            >= run_test.total_s > 0.0)


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
    for line in span_totals_to_jsonlines(
            list(instrumented_campaign["rows"].values())).splitlines():
        json.loads(line)


def test_instrumentation_does_not_change_the_golden_digest(
        instrumented_campaign):
    import pathlib
    golden = json.loads(
        (pathlib.Path(__file__).parent / "golden"
         / "digests.json").read_text(encoding="utf-8"))
    assert instrumented_campaign["digest"] == golden["faults_default"]
