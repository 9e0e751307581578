"""The alerting & SLO layer: rules, evaluator, daemon collector.

The hard contracts under test:

* daemon equivalence - one :class:`~repro.alerts.Collector` fed three
  successive campaign runs keeps a single live detector whose
  ``finalize()`` report equals batch ``detect()`` on the concatenated
  datasets, with a strictly monotone watermark across runs;
* deterministic alerting - the JSON-lines notification log is
  byte-identical with the batch stepper on and off and across a
  save/restore restart mid-sequence;
* the shipped default rule set actually exercises the state machine:
  the V_H burn-rate rule both fires and resolves on the pinned
  campaign shape.
"""

import dataclasses
import json
from typing import ClassVar

import pytest

from repro.alerts import (RULE_KINDS, AbsenceRule, AlertRule, BurnRateRule,
                          Collector, MetricHistory, RuleEvaluator,
                          ThresholdRule, alerts_to_prometheus,
                          concat_datasets, default_rules, load_rules,
                          notifications_to_jsonlines, parse_rule,
                          parse_rules)
from repro.cloud.tiers import NetworkTier
from repro.core.campaign import CampaignDataset
from repro.core.congestion import CongestionEvent, detect
from repro.core.records import MeasurementRecord, ServerMeta
from repro.errors import ConfigError, ValidationError
from repro.experiments.scenario import build_scenario
from repro.obs.metrics import MetricsRegistry
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

START = float(CAMPAIGN_START)

# Keep in sync with tests/test_streaming.py's pinned campaign shape
# (smaller server budget: three campaigns run per daemon sequence).
SEED, SCALE, REGION, BUDGET_SERVERS = 11, 0.05, "us-west1", 6
RUN_DAYS, N_RUNS = 1, 3


# ----------------------------------------------------------------------
# rules: parsing and validation


def test_parse_rule_each_kind():
    assert parse_rule({"kind": "threshold", "name": "t"}).kind \
        == "threshold"
    assert parse_rule({"kind": "absence", "name": "a"}).kind == "absence"
    rule = parse_rule({"kind": "burn-rate", "name": "b", "budget": 3.0})
    assert rule.kind == "burn-rate"
    assert rule.budget_rate() == 3.0 / (7.0 * 24.0)


def test_parse_rule_rejects_unknown_kind_and_fields():
    with pytest.raises(ConfigError):
        parse_rule({"kind": "nope", "name": "x"})
    with pytest.raises(ConfigError):
        parse_rule({"kind": "threshold", "name": "x", "bogus": 1})
    with pytest.raises(ConfigError):
        parse_rule("not-an-object")
    with pytest.raises(ConfigError):
        # stale_hours belongs to absence, not threshold
        parse_rule({"kind": "threshold", "name": "x", "stale_hours": 2})


def test_rule_field_validation():
    with pytest.raises(ConfigError):
        ThresholdRule(name="")
    with pytest.raises(ConfigError):
        ThresholdRule(name="x", severity="loud")
    with pytest.raises(ConfigError):
        ThresholdRule(name="x", agg="median")
    with pytest.raises(ConfigError):
        ThresholdRule(name="x", op="!=")
    with pytest.raises(ConfigError):
        ThresholdRule(name="x", window_hours=0.0)
    with pytest.raises(ConfigError):
        ThresholdRule(name="x", for_intervals=0)
    with pytest.raises(ConfigError):
        AbsenceRule(name="x", stale_hours=-1.0)
    with pytest.raises(ConfigError):
        BurnRateRule(name="x", max_burn=0.0)


def test_rule_scope_drops_unset_tags():
    rule = ThresholdRule(name="x", region="us-west1")
    assert rule.scope() == {"region": "us-west1"}
    assert ThresholdRule(name="y").scope() == {}


def test_parse_rules_rejects_duplicate_names():
    with pytest.raises(ConfigError):
        parse_rules([{"kind": "absence", "name": "same"},
                     {"kind": "threshold", "name": "same"}])


def test_load_rules_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_rules(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_rules(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"rules": 3}', encoding="utf-8")
    with pytest.raises(ConfigError):
        load_rules(scalar)


def test_example_rules_file_mirrors_default_rules():
    assert load_rules("examples/rules_default.json") == default_rules()


def _rule_problems(rule_classes, rule_kinds, evaluator):
    """Disagreements between rule classes, RULE_KINDS and the
    evaluator's ``_eval_*`` dispatch table."""
    problems, kinds = [], {}
    for cls in rule_classes:
        kind = vars(cls).get("kind")
        if not isinstance(kind, str):
            problems.append(f"{cls.__name__} declares no literal kind")
            continue
        if kind in kinds:
            problems.append(f"{kinds[kind]} and {cls.__name__} share "
                            f"kind {kind!r}")
        kinds[kind] = cls.__name__
        if kind not in rule_kinds:
            problems.append(f"{cls.__name__} is missing from RULE_KINDS")
    problems += [f"RULE_KINDS lists {kind!r}, which no class declares"
                 for kind in rule_kinds if kind not in kinds]
    handlers = {"_eval_" + kind.replace("-", "_") for kind in rule_kinds}
    problems += [f"{evaluator.__name__} has no {name}()"
                 for name in sorted(handlers) if not hasattr(evaluator, name)]
    problems += [f"{evaluator.__name__}.{attr} matches no rule kind"
                 for attr in dir(evaluator)
                 if attr.startswith("_eval_") and attr not in handlers]
    return problems


def test_rule_kinds_registry_mirrors_evaluator(repro_subclasses):
    assert len(set(RULE_KINDS)) == len(RULE_KINDS)
    for kind in RULE_KINDS:
        assert hasattr(RuleEvaluator,
                       "_eval_" + kind.replace("-", "_"))
    assert {rule.kind for rule in default_rules()} == set(RULE_KINDS)

    # Every AlertRule subclass in the package is registered under a
    # unique kind, and the evaluator has no handler for a kind that
    # does not exist.
    rules = repro_subclasses(AlertRule)
    assert {ThresholdRule, AbsenceRule, BurnRateRule} <= set(rules)
    assert _rule_problems(rules, RULE_KINDS, RuleEvaluator) == []

    # ... and the check trips on deliberately broken classes.
    @dataclasses.dataclass(frozen=True)
    class GhostRule(AlertRule):
        kind: ClassVar[str] = "ghost"

    @dataclasses.dataclass(frozen=True)
    class CopyRule(ThresholdRule):
        kind: ClassVar[str] = "threshold"

    class KindlessRule(AlertRule):
        pass

    class StrayEvaluator(RuleEvaluator):
        def _eval_ghost_town(self, rule, now_ts):
            pass

    assert _rule_problems(
        [ThresholdRule, GhostRule, CopyRule, KindlessRule],
        ("threshold", "absence"), StrayEvaluator) == [
        "GhostRule is missing from RULE_KINDS",
        "ThresholdRule and CopyRule share kind 'threshold'",
        "KindlessRule declares no literal kind",
        "RULE_KINDS lists 'absence', which no class declares",
        "StrayEvaluator._eval_burn_rate matches no rule kind",
        "StrayEvaluator._eval_ghost_town matches no rule kind",
    ]
    assert "RuleEvaluator has no _eval_ghost()" in _rule_problems(
        [ThresholdRule], ("threshold", "ghost"), RuleEvaluator)


# ----------------------------------------------------------------------
# evaluator: hand-built history


def _record(ts, download=100.0, region="us-west1", server_id="srv-1"):
    return MeasurementRecord(
        ts=ts, region=region, vm_name="vm-1", server_id=server_id,
        tier=NetworkTier.PREMIUM, download_mbps=download,
        upload_mbps=95.0, latency_ms=20.0, download_loss_rate=1e-4,
        upload_loss_rate=1e-4)


def _vh_event(ts):
    return CongestionEvent(
        pair=("us-west1", "srv-1", "premium"), ts=ts,
        local_hour=int(ts // HOUR) % 24, day_index=0, v_h=0.9,
        throughput_mbps=40.0, day_peak_mbps=400.0)


def test_threshold_rule_fires_after_streak_and_resolves():
    history = MetricHistory()
    rule = ThresholdRule(name="floor", agg="p50", op="<", value=50.0,
                         window_hours=1.0, for_intervals=2)
    evaluator = RuleEvaluator([rule], history, START)
    for hour in range(4):
        ts = START + hour * HOUR
        history.record_test("gcp", _record(ts + 60.0, download=10.0))
        evaluator.evaluate(ts + HOUR)
    # Breached from the first evaluation; fires on the second.
    firing = [n for n in evaluator.notifications if n.status == "firing"]
    assert len(firing) == 1
    assert firing[0].ts == START + 2 * HOUR
    assert firing[0].rule == "floor"
    assert evaluator.active_count == 1
    # A healthy window resolves it on the next evaluation.
    ts = START + 4 * HOUR
    history.record_test("gcp", _record(ts + 60.0, download=500.0))
    new = evaluator.evaluate(ts + HOUR)
    assert [n.status for n in new] == ["resolved"]
    assert evaluator.active_count == 0


def test_threshold_empty_window_never_breaches():
    history = MetricHistory()
    rule = ThresholdRule(name="floor", op="<", value=50.0)
    evaluator = RuleEvaluator([rule], history, START)
    assert evaluator.evaluate(START + DAY) == []
    assert evaluator.active_count == 0


def test_threshold_scope_filters_tags():
    history = MetricHistory()
    history.record_test("gcp", _record(START + 60.0, download=10.0,
                                       region="us-east1"))
    rule = ThresholdRule(name="floor", region="us-west1", op="<",
                         value=50.0, window_hours=2.0)
    evaluator = RuleEvaluator([rule], history, START)
    # The breach is in another region; the scoped rule sees no data.
    assert evaluator.evaluate(START + HOUR) == []


def test_absence_rule_anchors_at_start_then_resolves():
    history = MetricHistory()
    rule = AbsenceRule(name="stale", stale_hours=3.0)
    evaluator = RuleEvaluator([rule], history, START)
    assert evaluator.evaluate(START + 2 * HOUR) == []
    new = evaluator.evaluate(START + 4 * HOUR)
    assert [n.status for n in new] == ["firing"]
    history.record_test("gcp", _record(START + 5 * HOUR))
    new = evaluator.evaluate(START + 6 * HOUR)
    assert [n.status for n in new] == ["resolved"]


def test_burn_rate_rule_fires_and_resolves():
    history = MetricHistory()
    # Budget 1 event / day; window 6h; burn = 4n; fires on any event.
    rule = BurnRateRule(name="burn", budget=1.0, period_days=1.0,
                        window_hours=6.0, max_burn=1.0)
    evaluator = RuleEvaluator([rule], history, START)
    assert evaluator.evaluate(START + HOUR) == []
    history.record_vh_event("gcp", "us-west1", "premium",
                            _vh_event(START + 2 * HOUR))
    new = evaluator.evaluate(START + 3 * HOUR)
    assert [n.status for n in new] == ["firing"]
    assert new[0].value == pytest.approx(4.0)
    # The event ages out of the 6h window -> resolved.
    new = evaluator.evaluate(START + 9 * HOUR)
    assert [n.status for n in new] == ["resolved"]


def test_evaluator_rejects_bad_rules():
    history = MetricHistory()
    with pytest.raises(ConfigError):
        RuleEvaluator([ThresholdRule(name="a"),
                       AbsenceRule(name="a")], history, START)
    with pytest.raises(ConfigError):
        RuleEvaluator([ThresholdRule(name="x", table="nope")],
                      history, START)
    with pytest.raises(ConfigError):
        RuleEvaluator([ThresholdRule(name="x", field="nope")],
                      history, START)


def test_evaluator_mirrors_into_registry():
    history = MetricHistory()
    registry = MetricsRegistry()
    rule = AbsenceRule(name="stale", stale_hours=1.0)
    evaluator = RuleEvaluator([rule], history, START,
                              registry=registry)
    evaluator.evaluate(START + 2 * HOUR)
    counters = registry.snapshot()["counters"]
    assert counters["alerts.evaluations"] == 1
    assert counters["alerts.fired"] == 1
    assert registry.snapshot()["gauges"]["alerts.active"] == 1


def test_evaluator_state_round_trip():
    history = MetricHistory()
    rule = AbsenceRule(name="stale", stale_hours=1.0)
    evaluator = RuleEvaluator([rule], history, START)
    evaluator.evaluate(START + 2 * HOUR)
    state = json.loads(json.dumps(evaluator.state_dict()))
    clone = RuleEvaluator([rule], history, START)
    clone.restore_state(state)
    assert clone.state_dict() == evaluator.state_dict()
    assert clone.active_count == 1
    assert notifications_to_jsonlines(clone.notifications) \
        == notifications_to_jsonlines(evaluator.notifications)
    changed = RuleEvaluator([AbsenceRule(name="other")], history, START)
    with pytest.raises(ConfigError):
        changed.restore_state(state)


# ----------------------------------------------------------------------
# exporters


def test_notifications_jsonlines_stable_bytes():
    history = MetricHistory()
    rule = AbsenceRule(name="stale", stale_hours=1.0)
    evaluator = RuleEvaluator([rule], history, START)
    evaluator.evaluate(START + 2 * HOUR)
    text = notifications_to_jsonlines(evaluator.notifications)
    assert text.endswith("\n")
    row = json.loads(text.splitlines()[0])
    assert row["rule"] == "stale"
    assert row["status"] == "firing"
    assert row["severity"] == "page"
    assert notifications_to_jsonlines([]) == ""


def test_alerts_prometheus_exposition():
    history = MetricHistory()
    rule = AbsenceRule(name="stale", stale_hours=1.0)
    evaluator = RuleEvaluator([rule], history, START)
    evaluator.evaluate(START + 2 * HOUR)
    lines = alerts_to_prometheus(evaluator).splitlines()
    assert ('ALERTS{alertname="stale",alertstate="firing",'
            'severity="page"} 1') in lines
    assert 'alerts_notifications_total{status="firing"} 1' in lines
    assert 'alerts_notifications_total{status="resolved"} 0' in lines
    assert "alerts_evaluations_total 1" in lines


# ----------------------------------------------------------------------
# collector: synthetic feeds (no engine)


def _feed_day(collector, day, server_id="srv-1", download=400.0):
    """One synthetic day of hourly measurements + hour advances."""
    day_start = START + day * DAY
    for hour in range(24):
        ts = day_start + hour * HOUR
        collector.advance(ts)
        collector.observe_record(_record(ts + 60.0, download=download,
                                        server_id=server_id))
    collector.advance(day_start + DAY)


def test_collector_requires_begin_run():
    collector = Collector(START)
    with pytest.raises(ValidationError):
        collector.observe_record(_record(START + 60.0))


def test_collector_rejects_backwards_time():
    collector = Collector(START)
    collector.begin_run(lambda server_id: 0.0)
    collector.advance(START + 2 * HOUR)
    with pytest.raises(ValidationError):
        collector.advance(START + HOUR)


def test_collector_snapshot_cadence():
    """One snapshot and rule evaluation per hour boundary, once each."""
    collector = Collector(START)
    collector.begin_run(lambda server_id: 0.0)
    _feed_day(collector, 0)
    collector.advance(START + DAY)  # a repeated boundary steps nothing
    assert collector.evaluator.evaluations == 25  # t=0 plus 24 boundaries
    assert collector.state_dict()["snapshot_hours"] == 1.0


def test_collector_observer_requires_record_payload():
    collector = Collector(START)
    collector.begin_run(lambda server_id: 0.0)
    observer = collector.observer()

    class FakeEvent:
        ts = START
        record = None

    with pytest.raises(ValidationError):
        observer.on_test_completed(FakeEvent())


def test_collector_history_rows_and_counters():
    collector = Collector(START)
    collector.begin_run(lambda server_id: 0.0, provider="gcp")
    _feed_day(collector, 0, download=400.0)
    counters = collector.registry.snapshot()["counters"]
    assert counters["collector.observed"] == 24
    assert counters["collector.runs"] == 1
    assert collector.history.window_count(
        "throughput", START, START + DAY) == 24


def test_concat_datasets_validation():
    with pytest.raises(ValidationError):
        concat_datasets([])
    first = CampaignDataset(START, START + DAY)
    overlapping = CampaignDataset(START + HOUR, START + DAY + HOUR)
    with pytest.raises(ValidationError):
        concat_datasets([first, overlapping])


# ----------------------------------------------------------------------
# daemon mode: three successive engine campaigns, one collector

_SEQUENCES = {}


def _daemon_sequence(batch=False, restart_after=None):
    """Run N_RUNS successive campaigns into one collector.

    *restart_after* k serializes the collector after run k and
    continues from ``Collector.from_state_json`` - the daemon
    stop/restart path.  Returns (collector, datasets, watermarks).
    """
    key = (batch, restart_after)
    if key in _SEQUENCES:
        return _SEQUENCES[key]
    rules = default_rules()
    collector = None
    datasets = []
    watermarks = []
    for run in range(N_RUNS):
        run_start = START + run * RUN_DAYS * DAY
        scenario = build_scenario(seed=SEED, scale=SCALE)
        clasp = scenario.clasp
        selection = clasp.select_topology_servers(REGION)
        plan = clasp.deploy_topology(REGION, selection,
                                     budget_servers=BUDGET_SERVERS)
        if collector is None:
            collector, observer = clasp.collector(rules=rules)
        else:
            collector, observer = clasp.collector(collector=collector)
        datasets.append(clasp.run_campaign(
            [plan], days=RUN_DAYS, start_ts=run_start,
            charge_billing=False, observers=[observer], batch=batch))
        watermarks.append(collector.detector.watermark)
        if restart_after == run + 1:
            collector = Collector.from_state_json(
                collector.state_json(), rules=rules)
    result = (collector, datasets, watermarks)
    _SEQUENCES[key] = result
    return result


def test_daemon_keeps_one_detector_across_runs():
    collector, datasets, watermarks = _daemon_sequence()
    assert collector.runs == N_RUNS
    assert all(later > earlier for earlier, later
               in zip(watermarks, watermarks[1:]))
    assert collector.detector.late_dropped == 0
    assert collector.detector.observed == sum(len(d) for d in datasets)


def test_daemon_finalize_equals_batch_on_concat():
    collector, datasets, _watermarks = _daemon_sequence()
    # finalize() is destructive; snapshot state first so the cached
    # sequence stays reusable by the other tests.
    probe = Collector.from_state_json(collector.state_json(),
                                      rules=default_rules())
    report = probe.finalize()
    batch = detect(concat_datasets(datasets))
    assert report.events == batch.events
    assert report.day_records == batch.day_records
    assert report == batch


def test_daemon_shipped_burn_rate_rule_fires_and_resolves():
    collector, _datasets, _watermarks = _daemon_sequence()
    transitions = {(n.rule, n.status)
                   for n in collector.evaluator.notifications}
    assert ("vh-budget-burn", "firing") in transitions
    assert ("vh-budget-burn", "resolved") in transitions


def test_daemon_notifications_byte_identical_across_batch():
    scalar, _d1, marks1 = _daemon_sequence(batch=False)
    batched, _d2, marks2 = _daemon_sequence(batch=True)
    assert marks1 == marks2
    assert notifications_to_jsonlines(scalar.evaluator.notifications) \
        == notifications_to_jsonlines(batched.evaluator.notifications)
    assert scalar.state_json() == batched.state_json()


def test_daemon_restart_mid_sequence_is_byte_identical():
    uninterrupted, _d, _w = _daemon_sequence()
    restarted, _rd, _rw = _daemon_sequence(restart_after=2)
    assert restarted.runs == uninterrupted.runs
    assert notifications_to_jsonlines(
        restarted.evaluator.notifications) \
        == notifications_to_jsonlines(
            uninterrupted.evaluator.notifications)
    assert restarted.state_json() == uninterrupted.state_json()


def test_collector_state_schema_is_checked():
    collector, _datasets, _watermarks = _daemon_sequence()
    state = json.loads(collector.state_json())
    state["schema"] = "repro-collector/v999"
    with pytest.raises(ConfigError):
        Collector.from_state(state, rules=default_rules())
    with pytest.raises(ConfigError):
        # Restoring under a different rule set is a config error.
        Collector.from_state_json(collector.state_json(), rules=())


def test_clasp_collector_refuses_rules_for_an_existing_collector():
    """An existing collector keeps its rules; new ones are not dropped
    silently."""
    clasp = build_scenario(seed=SEED, scale=SCALE).clasp
    collector = Collector(START)
    with pytest.raises(ValidationError, match="rules"):
        clasp.collector(rules=default_rules(), collector=collector)
    assert collector.runs == 0
    same, _observer = clasp.collector(collector=collector)
    assert same is collector and same.runs == 1


def test_collector_resumes_state_with_retired_detector_keys():
    """Older state files also carry ``window_days`` and ``version``."""
    collector, _datasets, _watermarks = _daemon_sequence()
    state = json.loads(collector.state_json())
    state["detector"]["window_days"] = None
    state["detector"]["version"] = 3
    resumed = Collector.from_state(state, rules=default_rules())
    assert resumed.state_json() == collector.state_json()


# ----------------------------------------------------------------------
# surfacing: Prometheus export + dashboard


def test_alerts_prometheus_carries_firing_rule():
    history = MetricHistory()
    rule = AbsenceRule(name="stale", stale_hours=1.0)
    evaluator = RuleEvaluator([rule], history, START)
    evaluator.evaluate(START + 2 * HOUR)
    assert 'ALERTS{alertname="stale"' in alerts_to_prometheus(evaluator)


def test_dashboard_renders_alerts_panel():
    from repro.report.dashboard import render_dashboard

    _collector, datasets, _watermarks = _daemon_sequence()
    history = MetricHistory()
    rule = AbsenceRule(name="stale", stale_hours=1.0)
    evaluator = RuleEvaluator([rule], history, START)
    evaluator.evaluate(START + 2 * HOUR)
    merged = concat_datasets(datasets)
    text = render_dashboard(merged,
                            notifications=evaluator.notifications)
    assert "## alerts" in text
    assert "stale" in text
    empty = render_dashboard(merged, notifications=[])
    assert "no alert transitions" in empty
