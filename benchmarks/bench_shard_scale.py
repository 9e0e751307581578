"""Batch scaling: the campaign hot loop with the vectorized path off/on.

Runs one fixed multi-region campaign through the scalar stepper and
the vectorized batch stepper, in one process, measures wall time,
engine events/sec, completed tests/sec and the process RSS high-water
mark, and records both rows as the campaign point of the perf
trajectory in ``BENCH_campaign.json`` at the repo root (schema:
``benchmarks/README.md``).  Two assertions keep the trajectory honest:

* the headline speedup - events/sec with batch on must be at least
  ``MIN_SPEEDUP``x the scalar path on the same campaign;
* the planet-scale demo - a campaign spanning 10 regions with a
  10x server budget (10x the default ``repro campaign`` shape in both
  dimensions), run batched, must complete *more* tests in *less* wall
  time than the scalar path needs for this bench's default campaign.
  That is the "wall-time budget of today's default campaign":
  planet-scale coverage fits in the time the scalar path spends on an
  ordinary run.

Each row builds its own world (scenario build + topology deploys,
untimed): a second campaign on the same ``clasp`` would continue the
first run's per-VM RNG streams and inherit its warm route caches, so
it would time a different campaign.  On fresh worlds both rows run the
same campaign, which the bench asserts (equal dataset digest and
completed-test count) before comparing their speed.  Billing is not
charged on the timed runs.

Wall-clock timing is inherently nondeterministic; this file lives in
``benchmarks/`` (not ``src/repro``) exactly so the lint determinism
rules do not apply to it.
"""

import json
import pathlib
import resource
import time

from repro.core.export import dataset_digest
from repro.experiments import Pipeline
from repro.report.tables import TextTable

#: Default campaign for both rows: six US regions, a 40-server budget
#: each, two days.  Big enough that per-call overhead cannot hide the
#: asymptotic behaviour, small enough for a per-PR benchmark run.
SEED = 7
SCALE = 0.35
DAYS = 2
BUDGET_SERVERS = 40
REGIONS = ("us-west1", "us-west2", "us-west4",
           "us-east1", "us-east4", "us-central1")

#: Acceptance floor: events/sec with batch on vs the scalar path on the
#: same campaign.
MIN_SPEEDUP = 3.0

#: Planet-scale demo: 10x the regions and 10x the server budget of the
#: default ``repro campaign`` shape (one region, ``--servers 8``), at
#: the default demo scale used by the golden tests.
PLANET_REGIONS = 10
PLANET_BUDGET_SERVERS = 80
PLANET_SCALE = 0.05

#: Row order: the scalar path first (it is the baseline).
BATCH_MODES = (False, True)

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

#: Trajectory point label - bump when re-anchoring the perf curve.
#: Previous points stay readable in the git history of the JSON file.
LABEL = "batch-v4 (array-form planner; fresh world per row)"


class _EventCounter:
    """Counts every event the campaign bus emits (uniform accounting
    across the scalar and batch paths)."""

    def __init__(self):
        self.n = 0

    def on_event(self, event):
        self.n += 1


def _peak_rss_kb():
    """Process RSS high-water mark so far, in KiB (monotone)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _timed_run(clasp, plans, batch):
    """(bench row, dataset digest) of one timed campaign."""
    counter = _EventCounter()
    start = time.perf_counter()
    dataset = clasp.run_campaign(plans, days=DAYS, charge_billing=False,
                                 observers=[counter], batch=batch)
    wall = time.perf_counter() - start
    return {
        "batch": batch,
        "wall_s": round(wall, 3),
        "events": counter.n,
        "events_per_sec": round(counter.n / wall, 1),
        "tests": dataset.completed_tests,
        "tests_per_sec": round(dataset.completed_tests / wall, 1),
        "peak_rss_kb": _peak_rss_kb(),
    }, dataset_digest(dataset)


def _fresh_run(batch):
    """One timed campaign on a freshly built and deployed world."""
    pipeline = Pipeline(seed=SEED, scale=SCALE, days=DAYS, regions=REGIONS,
                        budget=BUDGET_SERVERS)
    return _timed_run(pipeline.clasp, pipeline.topology_plans(), batch)


def test_bench_shard_scale(emit):
    (baseline, base_digest), (batched, batch_digest) = [
        _fresh_run(batch) for batch in BATCH_MODES]
    assert batch_digest == base_digest, "batch and scalar datasets differ"
    assert batched["tests"] == baseline["tests"]
    speedup = batched["events_per_sec"] / baseline["events_per_sec"]

    # Planet-scale demo: fresh scenario at the default demo scale so the
    # shape (10 regions x 80-server budget) matches "10x the default
    # campaign" rather than "10x this bench's campaign".
    planet = Pipeline(seed=SEED, scale=PLANET_SCALE, days=DAYS,
                      budget=PLANET_BUDGET_SERVERS)
    regions = planet.clasp.platform.available_regions()[:PLANET_REGIONS]
    planet_plans = [planet.topology_plan(region) for region in regions]
    demo, _digest = _timed_run(planet.clasp, planet_plans, True)
    demo_row = {
        "regions": len(planet_plans),
        "budget_servers": PLANET_BUDGET_SERVERS,
        "scale": PLANET_SCALE,
        "days": DAYS,
        "budget_wall_s": baseline["wall_s"],
        **demo,
    }

    table = TextTable(
        ["run", "wall s", "events/s", "tests/s", "rss MiB"],
        title=f"batch scaling: {len(REGIONS)} regions x "
              f"{BUDGET_SERVERS} servers x {DAYS} days "
              f"({baseline['tests']} tests; speedup {speedup:.2f}x)")
    for row in (baseline, batched):
        table.add_row(["batch on" if row["batch"] else "batch off",
                       f"{row['wall_s']:.2f}",
                       f"{row['events_per_sec']:.0f}",
                       f"{row['tests_per_sec']:.0f}",
                       f"{row['peak_rss_kb'] / 1024:.0f}"])
    table.add_row([f"planet {demo_row['regions']}R batch on",
                   f"{demo['wall_s']:.2f}",
                   f"{demo['events_per_sec']:.0f}",
                   f"{demo['tests_per_sec']:.0f}",
                   f"{demo['peak_rss_kb'] / 1024:.0f}"])
    emit("bench_shard_scale", table.render())

    # Preserve the other benches' points (cross-cloud, streaming,
    # alerts) so each bench can re-anchor its own section independently.
    doc = {}
    if BENCH_PATH.exists():
        doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    doc.update({
        "schema": "bench-campaign/v5",
        "generated_by": "benchmarks/bench_shard_scale.py",
        "label": LABEL,
        "shape": {
            "seed": SEED, "scale": SCALE, "days": DAYS,
            "regions": list(REGIONS),
            "budget_servers": BUDGET_SERVERS, "faults": "off",
        },
        "rows": [baseline, batched],
        "speedup_batch_vs_scalar": round(speedup, 2),
        "planet_demo": demo_row,
    })
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")

    assert speedup >= MIN_SPEEDUP, (
        f"batch reached only {speedup:.2f}x the scalar events/sec "
        f"(floor {MIN_SPEEDUP}x)")
    # The demo must beat today's default campaign on both axes: more
    # completed tests, less wall time, despite covering 10x regions.
    assert demo["tests"] > baseline["tests"], (
        f"planet demo completed {demo['tests']} tests vs the default "
        f"campaign's {baseline['tests']}")
    assert demo["wall_s"] <= baseline["wall_s"], (
        f"planet demo took {demo['wall_s']:.2f}s against the default "
        f"campaign's scalar wall-time budget of {baseline['wall_s']:.2f}s")
