"""Always-on monitoring: incremental detection vs hourly rescans.

An always-on monitor that recomputes batch ``detect()`` every hour
pays the full dataset scan 24x a day; the streaming detector pays
O(new observations) per hour and seals days as their local midnight
passes.  This bench replays the default ``repro campaign`` shape
(seed 7, scale 0.2, one region, 8-server budget, 7 days) hour by hour
through :class:`~repro.core.streaming.StreamingCongestionDetector`,
measures the mean per-hour incremental cost against one full
``detect()`` rescan (the steady-state hourly cost of the naive
monitor), and asserts the incremental path is at least
``MIN_SPEEDUP``x cheaper.  Equivalence of the two outputs is asserted
here too (and is a tier-1 guarantee: ``tests/test_streaming.py``).
The point lands in ``BENCH_campaign.json`` under the
``streaming_detect`` key (schema ``bench-campaign/v5``,
merge-preserving like the other campaign benches).

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import json
import pathlib
import time

from repro.core.congestion import detect
from repro.core.streaming import (StreamingCongestionDetector,
                                  dataset_offsets, iter_hourly)
from repro.experiments.scenario import build_scenario
from repro.report.tables import TextTable

#: The default ``repro campaign`` shape.
SEED = 7
SCALE = 0.2
REGION = "us-west1"
BUDGET_SERVERS = 8
DAYS = 7

#: Acceptance floor: mean per-hour incremental update vs one full
#: ``detect()`` rescan of the final dataset.
MIN_SPEEDUP = 10.0

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_campaign.json")

LABEL = "streaming-v1 (incremental vs rescan)"


def _rows(dataset, metric="download"):
    rows = []
    for pair in dataset.pairs():
        series = dataset.table.series(pair)
        for ts, value in zip(series["ts"], series[metric]):
            rows.append((float(ts), pair, float(value)))
    rows.sort(key=lambda row: row[0])
    return rows


def _best_of(n, fn):
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_streaming(emit):
    scenario = build_scenario(seed=SEED, scale=SCALE, faults=None)
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    dataset = clasp.run_campaign([plan], days=DAYS,
                                 charge_billing=False)
    rows = _rows(dataset)
    n_hours = DAYS * 24

    # The naive always-on monitor: a full batch rescan (steady-state
    # hourly cost once the campaign has accumulated its data).
    rescan_wall, batch = _best_of(3, lambda: detect(dataset))

    # The incremental path: one detector fed hour by hour.
    def replay():
        detector = StreamingCongestionDetector(
            dataset.start_ts, dataset_offsets(dataset))
        for hour_ts, hour_rows in iter_hourly(rows, dataset.start_ts,
                                              dataset.end_ts):
            detector.advance(hour_ts)
            for ts, pair, value in hour_rows:
                detector.observe(pair, ts, value)
        return detector

    stream_wall, detector = _best_of(3, replay)
    per_hour = stream_wall / n_hours
    streamed = detector.finalize()
    assert streamed == batch
    speedup = rescan_wall / per_hour

    table = TextTable(
        ["path", "wall", "unit"],
        title=f"streaming detection: {len(dataset.pairs())} pairs x "
              f"{n_hours} hours ({len(rows)} observations; "
              f"incremental {speedup:.0f}x cheaper per hour)")
    table.add_row(["batch detect() rescan", f"{rescan_wall * 1e3:.2f}ms",
                   "per hour (naive monitor)"])
    table.add_row(["incremental update", f"{per_hour * 1e6:.1f}us",
                   "per hour (streaming)"])
    table.add_row(["full replay + advance", f"{stream_wall * 1e3:.2f}ms",
                   f"whole campaign ({n_hours} h)"])
    emit("bench_streaming", table.render())

    doc = {}
    if BENCH_PATH.exists():
        doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    doc["schema"] = "bench-campaign/v5"
    doc["streaming_detect"] = {
        "generated_by": "benchmarks/bench_streaming.py",
        "label": LABEL,
        "shape": {
            "seed": SEED, "scale": SCALE, "days": DAYS,
            "regions": [REGION], "budget_servers": BUDGET_SERVERS,
            "faults": "off",
        },
        "pairs": len(dataset.pairs()),
        "hours": n_hours,
        "observations": len(rows),
        "rescan_wall_s": round(rescan_wall, 6),
        "incremental_wall_s": round(stream_wall, 6),
        "incremental_per_hour_s": round(per_hour, 9),
        "speedup_incremental_vs_rescan": round(speedup, 1),
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")

    assert speedup >= MIN_SPEEDUP, (
        f"incremental hourly update is only {speedup:.1f}x cheaper "
        f"than a full rescan (floor {MIN_SPEEDUP}x)")
