"""Alert-evaluation overhead: the daemon collector with vs without rules.

The alerting layer rides the campaign's hour boundaries - each
watermark advance snapshots the metrics registry into the history
TSDB and evaluates the rule set against it.  This bench runs one
fixed campaign twice through :meth:`~repro.core.clasp.Clasp.collector`
- an empty rule set vs the shipped :func:`~repro.alerts.default_rules`
- and holds the ruled run under a 1.1x budget, so "alerting is cheap
enough to leave on" stays enforced rather than assumed.  The point
lands in ``BENCH_campaign.json`` under the ``alerts_eval`` key
(schema ``bench-campaign/v5``).

A second check holds the collector's *hourly* cost flat as history
grows: it feeds 40 synthetic pairs hour by hour for 56 simulated days
and requires the mean :meth:`~repro.alerts.Collector.advance` wall of
the last week to stay within 2x that of the first week.  A two-day
campaign cannot show a step that rescans the whole history; eight
weeks can.  This check writes nothing to ``BENCH_campaign.json``.

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import json
import pathlib
import time

from repro.alerts import Collector, default_rules
from repro.cloud.tiers import NetworkTier
from repro.core.export import dataset_digest
from repro.core.records import MeasurementRecord
from repro.report.tables import TextTable
from repro.simclock import CAMPAIGN_START
from repro.units import DAY, HOUR

from conftest import FIXED_SCALE, FIXED_SEED, FIXED_SERVERS, fixed_plan

#: Small fixed shape (``conftest.fixed_plan`` for two days, as in
#: bench_obs_overhead): the bench compares ruled against rule-less on
#: identical work, so it only needs to be stable, not paper-scale.
DAYS = 2
MAX_OVERHEAD = 1.1
#: Per-variant best-of runs: a 1.1x budget needs jitter suppression.
BEST_OF = 3

#: Hourly-cost gate: synthetic pairs, simulated days, and the allowed
#: growth of the mean advance() wall from the first to the last week.
FLAT_PAIRS = 40
FLAT_DAYS = 56
MAX_GROWTH = 2.0
FLAT_REGIONS = ("us-west1", "us-east1", "europe-west1", "asia-east1")

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_campaign.json")
SCHEMA = "bench-campaign/v5"
LABEL = "alerts-v1 (rule evaluation riding the collector)"


def _run_once(rules):
    clasp, plan = fixed_plan()
    collector, observer = clasp.collector(rules=rules)
    start = time.perf_counter()
    dataset = clasp.run_campaign([plan], days=DAYS, observers=[observer])
    elapsed = time.perf_counter() - start
    collector.finalize()
    return dataset, collector, elapsed


def _best_of(rules):
    best = float("inf")
    dataset = collector = None
    for _ in range(BEST_OF):
        run_dataset, run_collector, elapsed = _run_once(rules)
        if elapsed < best:
            best, dataset, collector = elapsed, run_dataset, run_collector
    return dataset, collector, best


def test_bench_alerts_overhead(emit):
    base_dataset, _base, base_wall = _best_of(())
    ruled_dataset, collector, ruled_wall = _best_of(default_rules())
    # Alerting must observe the campaign, never perturb it.
    assert dataset_digest(ruled_dataset) == dataset_digest(base_dataset)

    ratio = ruled_wall / base_wall
    evaluations = int(collector.registry.snapshot()["counters"].get(
        "alerts.evaluations", 0))
    notifications = len(collector.evaluator.notifications)

    table = TextTable(
        ["variant", "seconds", "vs no rules"],
        title=f"repro.alerts overhead: {DAYS} days x {FIXED_SERVERS} servers "
              f"({ruled_dataset.completed_tests} tests, best of "
              f"{BEST_OF})")
    table.add_row(["collector, no rules", f"{base_wall:.2f}", "1.00x"])
    table.add_row([f"collector + {len(default_rules())} default rules",
                   f"{ruled_wall:.2f}", f"{ratio:.2f}x"])
    table.add_row([f"  ({evaluations} rule evaluations, "
                   f"{notifications} notifications)", "-", "-"])
    emit("bench_alerts", table.render())

    doc = {}
    if BENCH_PATH.exists():
        doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    doc["schema"] = SCHEMA
    doc["alerts_eval"] = {
        "generated_by": "benchmarks/bench_alerts.py",
        "label": LABEL,
        "shape": {
            "seed": FIXED_SEED, "scale": FIXED_SCALE, "days": DAYS,
            "regions": ["us-west1"], "budget_servers": FIXED_SERVERS,
            "faults": "off",
        },
        "rules": len(default_rules()),
        "evaluations": evaluations,
        "notifications": notifications,
        "base_wall_s": round(base_wall, 3),
        "ruled_wall_s": round(ruled_wall, 3),
        "overhead_ratio": round(ratio, 3),
        "max_overhead": MAX_OVERHEAD,
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")

    assert ratio < MAX_OVERHEAD, (
        f"rule evaluation ran {ratio:.2f}x the rule-less collector "
        f"baseline (budget {MAX_OVERHEAD}x)")


def _synthetic_record(ts, k):
    """Pair *k*'s measurement at *ts*: a flat day with an evening dip
    on every third pair, so sealed days carry V_H events too."""
    local_hour = int((ts // HOUR) + k % 5) % 24
    dip = k % 3 == 0 and local_hour in (19, 20, 21)
    tier = NetworkTier.PREMIUM if k % 2 == 0 else NetworkTier.STANDARD
    return MeasurementRecord(
        ts=ts, region=FLAT_REGIONS[k % len(FLAT_REGIONS)],
        vm_name=f"vm-{k % len(FLAT_REGIONS)}", server_id=f"srv-{k:02d}",
        tier=tier, download_mbps=60.0 if dip else 400.0 + k,
        upload_mbps=90.0, latency_ms=20.0 + k % 7,
        download_loss_rate=1e-4, upload_loss_rate=1e-4)


def _feed_hourly(days):
    """A ruled collector fed FLAT_PAIRS pairs hour by hour; returns it
    and the wall of each hour's advance()."""
    start = float(CAMPAIGN_START)
    collector = Collector(start, rules=default_rules())
    collector.begin_run(lambda server_id: float(int(server_id[4:]) % 5))
    walls = []
    for hour in range(int(days * DAY // HOUR)):
        hour_ts = start + hour * HOUR
        tick = time.perf_counter()
        collector.advance(hour_ts)
        walls.append(time.perf_counter() - tick)
        for k in range(FLAT_PAIRS):
            collector.observe_record(
                _synthetic_record(hour_ts + 60.0 + k, k))
    return collector, walls


def test_bench_alerts_hourly_cost_is_flat(emit):
    # An untimed day first: the first rule evaluations pay one-off
    # warm-up costs that would inflate the first week's mean.
    _feed_hourly(1)
    collector, walls = _feed_hourly(FLAT_DAYS)
    hours = len(walls)
    week = int(7 * DAY // HOUR)
    first = sum(walls[:week]) / week
    last = sum(walls[-week:]) / week
    growth = last / first
    counters = collector.registry.snapshot()["counters"]

    table = TextTable(
        ["week", "mean advance() ms"],
        title=f"collector hourly cost: {FLAT_PAIRS} pairs x {FLAT_DAYS} "
              f"days ({hours} advances, "
              f"{int(counters['collector.sealed_days'])} sealed days, "
              f"{int(counters.get('collector.vh_events', 0))} V_H events)")
    table.add_row(["first", f"{first * 1e3:.3f}"])
    table.add_row(["last", f"{last * 1e3:.3f}"])
    table.add_row(["last / first", f"{growth:.2f}x"])
    emit("bench_alerts_hourly", table.render())

    assert counters.get("collector.vh_events", 0) > 0
    assert growth <= MAX_GROWTH, (
        f"the mean advance() of the last simulated week ran {growth:.2f}x "
        f"that of the first (budget {MAX_GROWTH}x): the hourly step "
        "grows with history")
