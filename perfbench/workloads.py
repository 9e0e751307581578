"""The benchmark's three workloads, and one timed run of the pipeline.

Every workload drives the public CLASP pipeline the way a user does:
``build_scenario`` -> ``Clasp.select_topology_servers`` ->
``Clasp.deploy_topology`` -> ``Clasp.run_campaign`` -> ``detect``.  The
workload seed is a benchmark argument; the program only ever sees the
scenario built from it.

Stage times are reported in host-normalized seconds.  On a shared host
the same single-threaded work runs up to twice as slow while other
tenants load the machine, and that drift lasts minutes.  So each
repetition times a fixed pure-Python loop (:func:`calibration_s`)
between its stages and scales each stage's wall time by
``REFERENCE_S`` / (mean loop time around the stage): the seconds the
stage would take on a host that runs the loop in ``REFERENCE_S``.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
import time
from typing import Any, Dict, List, Tuple

from layers import FAULTY, MONITORED, PILOT

#: Calibration-loop seconds on a quiet 2-core host; see the module doc.
REFERENCE_S = 0.2


@dataclasses.dataclass(frozen=True)
class Shape:
    """What one workload runs."""

    scale: float
    regions: Tuple[str, ...]
    #: Servers deployed per region (the selection is truncated to it).
    budget: int
    days: int
    #: ``run_campaign(batch=...)``; False is the default execution path.
    batch: bool = False
    #: Attach the streaming detector and an alerting collector.
    monitored: bool = False
    #: Run the campaign under ``FaultPlan.heavy()``.
    faults: bool = False


#: Why each shape: pilot-scan is selection-bound (two pilot scans at
#: scale 0.35, a token campaign); monitored-campaign is bound by the
#: batched campaign and the live monitor stack; faulty-campaign runs the
#: scalar per-test path and every recovery path.  BENCHMARK.json lists
#: only the last two: pilot-scan's sub-second campaign stage times too
#: unsteadily on a shared host to hold a regression bound.
SHAPES: Dict[str, Shape] = {
    PILOT: Shape(scale=0.35, regions=("us-west1", "us-east1"), budget=8,
                 days=1),
    MONITORED: Shape(scale=0.1, regions=("us-west1",), budget=40, days=28,
                     batch=True, monitored=True),
    FAULTY: Shape(scale=0.1, regions=("us-west1",), budget=40, days=7,
                  faults=True),
}


def shape_of(workload: str, tiny: bool = False) -> Shape:
    """The workload's shape, or with *tiny* the smoke-test size.

    Tiny is scale 0.05 with at most 7 campaign days: a week is what the
    heavy fault plan needs to preempt a VM on every seed.
    """
    shape = SHAPES[workload]
    if not tiny:
        return shape
    return dataclasses.replace(shape, scale=0.05, days=min(shape.days, 7))


class _Slot:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0


def calibration_s() -> float:
    """Seconds one fixed loop takes at the host's current speed.

    The loop does the simulator's kind of work: dict lookups, attribute
    updates and heap operations on a working set of a few MB.
    """
    rng = random.Random(1)
    slots: Dict[int, _Slot] = {}
    heap: List[Tuple[float, int]] = []
    start = time.perf_counter()
    for i in range(120_000):
        key = rng.randrange(20_000)
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = _Slot()
        slot.total += rng.random()
        heapq.heappush(heap, (slot.total, i))
        if len(heap) > 2_000:
            heapq.heappop(heap)
    return time.perf_counter() - start


def run(seed: int, shape: Shape) -> Dict[str, Any]:
    """Build the world, then run the pipeline once on it.

    Returns host-normalized stage times, test counts, the dataset
    digest, the selected server ids per region and the failed checks.
    """
    from repro.alerts import default_rules
    from repro.core import congestion
    from repro.core.export import dataset_digest
    from repro.experiments.scenario import build_scenario
    from repro.faults import FaultPlan

    clock = time.perf_counter
    #: Stage name -> (wall seconds, index of the calibration before it).
    walls: Dict[str, Tuple[float, int]] = {}
    calibrations = [calibration_s()]
    lap = clock()

    def stage(name: str) -> None:
        nonlocal lap
        now = clock()
        walls[name] = (now - lap, len(calibrations) - 1)
        lap = now

    def calibrate() -> None:
        nonlocal lap
        calibrations.append(calibration_s())
        lap = clock()

    scenario = build_scenario(
        seed=seed, scale=shape.scale,
        faults=FaultPlan.heavy() if shape.faults else None)
    stage("setup_s")
    calibrate()
    clasp = scenario.clasp
    selections = {region: clasp.select_topology_servers(region)
                  for region in shape.regions}
    stage("select_s")
    calibrate()
    plans = [clasp.deploy_topology(region, selections[region],
                                   budget_servers=shape.budget)
             for region in shape.regions]
    observers: List[Any] = []
    if shape.monitored:
        detector, detector_observer = clasp.streaming_detector()
        collector, collector_observer = clasp.collector(
            rules=default_rules())
        observers = [detector_observer, collector_observer]
    stage("deploy_s")
    dataset = clasp.run_campaign(plans, days=shape.days, batch=shape.batch,
                                 observers=observers)
    stage("campaign_s")
    report = congestion.detect(dataset)
    stage("detect_s")
    if shape.monitored:
        streamed = detector.finalize()
        collected = collector.finalize()
        stage("finalize_s")
    calibrate()

    stages = {
        name: wall * REFERENCE_S
        / ((calibrations[before] + calibrations[before + 1]) / 2)
        for name, (wall, before) in walls.items()}
    run_s = sum(value for name, value in stages.items() if name != "setup_s")

    problems: List[str] = []
    deployed = {sid for plan in plans for sid in plan.server_ids}
    measured = {server_id for _region, server_id, _tier in dataset.pairs()}
    for region, plan in zip(shape.regions, plans):
        want = min(shape.budget, len(selections[region].selected))
        if len(plan.server_ids) != want:
            problems.append(f"{region}: deployed {len(plan.server_ids)} "
                            f"servers, expected {want}")
    if measured != deployed:
        problems.append(f"measured {len(measured)} servers, deployed "
                        f"{len(deployed)}")
    if dataset.completed_tests != len(dataset):
        problems.append("completed-test count disagrees with the dataset")
    if not set(report.pair_hours) <= set(dataset.pairs()):
        problems.append("detect() reported a pair the dataset lacks")
    if shape.faults and not dataset.lost_tests:
        problems.append("the heavy fault plan lost no test slot")
    if shape.monitored:
        if streamed != report:
            problems.append("streaming finalize() != detect(dataset)")
        if collected != report:
            problems.append("collector finalize() != detect(dataset)")

    return {
        "run_s": run_s,
        **stages,
        "calibration_s": calibrations,
        "completed": dataset.completed_tests,
        "lost": dataset.lost_tests,
        "digest": dataset_digest(dataset),
        "selected": {region: selections[region].selected_ids()
                     for region in shape.regions},
        "problems": problems,
    }
