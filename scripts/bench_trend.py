#!/usr/bin/env python
"""Perf-trend gate: a fresh bench point vs the committed trajectory.

``BENCH_campaign.json`` is the perf trajectory of the repo; this
script re-measures its two headline *ratios* at the committed shapes
and fails when either has regressed by more than
``MAX_REGRESSION`` (default 20%):

* the batch speedup - events/sec of the batch executor vs the scalar
  path, on the same campaign as the committed ``rows``;
* the streaming speedup - a full ``detect()`` rescan vs the per-hour
  incremental update, on the same campaign as the committed
  ``streaming_detect`` point.

Ratios (not absolute wall seconds) are compared, so the gate is
robust to the host being faster or slower than the machine that
committed the anchor point.  Each check appends one entry to the
doc's ``history`` list - the in-file tail of the perf curve (the full
curve stays in the git history of the JSON file).

A missing, malformed or old-schema file fails fast - before any
fresh run - with exit status 1 and one line naming the missing key.

Opt-in from ``scripts/check.py`` via ``REPRO_BENCH_TREND=1`` - fresh
campaign runs take ~15s, too slow for the default gate.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.congestion import detect  # noqa: E402
from repro.core.export import dataset_digest  # noqa: E402
from repro.core.streaming import (StreamingCongestionDetector,  # noqa: E402
                                  dataset_offsets, iter_hourly)
from repro.errors import (ConfigError, ReproError,  # noqa: E402
                          ValidationError)
from repro.experiments import Pipeline  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_campaign.json"

#: The ``schema`` tag this gate reads (``benchmarks/README.md``).
SCHEMA = "bench-campaign/v5"

#: Every key the gate reads, as dotted paths into the doc.
REQUIRED_KEYS = (
    "schema",
    "shape.seed", "shape.scale", "shape.days", "shape.regions",
    "shape.budget_servers",
    "rows",
    "streaming_detect.shape.seed", "streaming_detect.shape.scale",
    "streaming_detect.shape.days", "streaming_detect.shape.regions",
    "streaming_detect.shape.budget_servers",
    "streaming_detect.speedup_incremental_vs_rescan",
)

#: Fail when a fresh ratio drops below this fraction of the committed
#: anchor (0.8 == a >20% regression fails the gate).
MAX_REGRESSION = 0.8

#: Best-of runs per timed measurement (jitter suppression).
BEST_OF = 3


def _best_of(n, fn):
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _deploy_shape(shape):
    pipeline = Pipeline(seed=shape["seed"], scale=shape["scale"],
                        days=shape["days"], regions=shape["regions"],
                        budget=shape["budget_servers"])
    return pipeline.clasp, pipeline.topology_plans()


def fresh_batch_speedup(doc):
    """events/sec ratio, batch vs scalar, at the committed shape.

    Each mode runs on its own freshly deployed world: a second campaign
    on one ``clasp`` would continue the first run's RNG streams and
    route caches, and so time a different campaign.
    """
    shape = doc["shape"]
    walls = {}
    datasets = {}
    for batch in (False, True):
        clasp, plans = _deploy_shape(shape)
        walls[batch], datasets[batch] = _best_of(
            1, lambda: clasp.run_campaign(plans, days=shape["days"],
                                          charge_billing=False, batch=batch))
    scalar, batched = datasets[False], datasets[True]
    if (dataset_digest(scalar) != dataset_digest(batched)
            or scalar.completed_tests != batched.completed_tests):
        raise ValidationError("batch and scalar campaigns differ "
                              "(dataset digest or completed tests)")
    # The same campaign either way, so the events/sec ratio collapses
    # to the inverse wall-time ratio.
    return walls[False] / walls[True]


def _missing(key):
    return ConfigError(f"{BENCH_PATH.name} has no key {key!r}")


def _require(doc, path):
    """The value at dotted *path*; ConfigError names the first missing key."""
    node = doc
    parts = path.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            raise _missing(".".join(parts[:depth + 1]))
        node = node[part]
    return node


def committed_batch_speedup(doc):
    """events/sec ratio of the committed batch-on row over batch-off."""
    per_sec = {}
    for index, row in enumerate(_require(doc, "rows")):
        for key in ("batch", "events_per_sec"):
            if not isinstance(row, dict) or key not in row:
                raise _missing(f"rows[{index}].{key}")
        per_sec[row["batch"]] = row["events_per_sec"]
    for batch in (False, True):
        if batch not in per_sec:
            raise _missing(f"rows[batch={batch}]")
    return per_sec[True] / per_sec[False]


def load_doc():
    """Read and check the committed doc before any fresh run."""
    name = BENCH_PATH.name
    if not BENCH_PATH.exists():
        raise ConfigError(f"no {name} to compare against")
    try:
        doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{name} is not JSON: {err}") from None
    for key in REQUIRED_KEYS:
        _require(doc, key)
    if doc["schema"] != SCHEMA:
        raise ConfigError(f"{name} has schema {doc['schema']!r}, "
                          f"expected {SCHEMA!r}")
    committed_batch_speedup(doc)
    return doc


def fresh_streaming_speedup(doc):
    """detect() rescan vs per-hour incremental, at the committed shape."""
    shape = doc["streaming_detect"]["shape"]
    clasp, plans = _deploy_shape(shape)
    dataset = clasp.run_campaign(plans, days=shape["days"],
                                 charge_billing=False)
    rows = []
    for pair in dataset.pairs():
        series = dataset.table.series(pair)
        for ts, value in zip(series["ts"], series["download"]):
            rows.append((float(ts), pair, float(value)))
    rows.sort(key=lambda row: row[0])

    rescan_wall, _report = _best_of(BEST_OF, lambda: detect(dataset))

    def replay():
        detector = StreamingCongestionDetector(
            dataset.start_ts, dataset_offsets(dataset))
        for hour_ts, hour_rows in iter_hourly(rows, dataset.start_ts,
                                              dataset.end_ts):
            detector.advance(hour_ts)
            for ts, pair, value in hour_rows:
                detector.observe(pair, ts, value)
        return detector

    stream_wall, _detector = _best_of(BEST_OF, replay)
    per_hour = stream_wall / (shape["days"] * 24)
    return rescan_wall / per_hour


def main() -> int:
    try:
        doc = load_doc()
    except ReproError as err:
        print(f"bench-trend: {err}", file=sys.stderr)
        return 1

    checks = []  # (name, fresh, committed)
    print("== bench-trend: fresh batch point "
          f"(shape: {doc['shape']['regions']})", flush=True)
    try:
        checks.append(("batch_speedup", fresh_batch_speedup(doc),
                       committed_batch_speedup(doc)))
    except ReproError as err:
        print(f"bench-trend: {err}", file=sys.stderr)
        return 1
    print("== bench-trend: fresh streaming point", flush=True)
    checks.append(("streaming_speedup", fresh_streaming_speedup(doc),
                   doc["streaming_detect"]["speedup_incremental_vs_rescan"]))

    failures = []
    entry = {"label": doc.get("label", "?"), "verdict": "ok"}
    for name, fresh, committed in checks:
        ratio = fresh / committed
        status = "ok" if ratio >= MAX_REGRESSION else "REGRESSED"
        print(f"   {name}: fresh {fresh:.2f}x vs committed "
              f"{committed:.2f}x ({ratio:.2f} of anchor) -> {status}")
        entry[name] = round(fresh, 2)
        if ratio < MAX_REGRESSION:
            failures.append(name)
    if failures:
        entry["verdict"] = "regressed: " + ", ".join(failures)

    doc.setdefault("history", []).append(entry)
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")

    if failures:
        print(f"bench-trend: regression in {', '.join(failures)} "
              f"(> {1 - MAX_REGRESSION:.0%} below the committed anchor)",
              file=sys.stderr)
        return 1
    print("bench-trend: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
