"""Ablation: the deployed V_H detector vs the future-work detectors.

Scores the paper's variability-threshold detector and the two
section-5 proposals (autocorrelation, 2-state Gaussian HMM) against
the simulator's ground truth (was the ingress path actually saturated
when each test ran) - a comparison the paper itself could not make.
"""

import numpy as np

from repro.core.detectors import (
    AutocorrelationDetector,
    HmmDetector,
    VariabilityDetector,
)
from repro.core.validation import congestion_oracle, detector_scores
from repro.report.tables import TextTable, format_percent

DETECTORS = (VariabilityDetector(), AutocorrelationDetector(),
             HmmDetector())


def _evaluate(pipeline, max_pairs=40):
    dataset = pipeline.topology_dataset()
    scenario = pipeline.scenario
    rows = {d.name: [] for d in DETECTORS}
    evaluated = 0
    for pair in dataset.pairs():
        if evaluated >= max_pairs:
            break
        ts, truth = congestion_oracle(scenario.clasp.platform,
                                      scenario.catalog, dataset, pair)
        if truth.sum() < 3:
            continue
        evaluated += 1
        for detector in DETECTORS:
            detection = detector.detect(dataset, pair)
            rows[detector.name].append(
                detector_scores(detection, ts, truth))
    return evaluated, rows


def test_ablation_detectors(benchmark, pipeline, emit):
    evaluated, rows = benchmark.pedantic(_evaluate, args=(pipeline,),
                                         rounds=1, iterations=1)
    assert evaluated > 0, "no saturated pairs to score against"

    table = TextTable(
        ["detector", "pairs", "precision", "recall", "F1"],
        title="Ablation: congestion detectors vs ground truth "
              f"({evaluated} saturated pairs)")
    f1 = {}
    for name, scores in rows.items():
        precision = float(np.mean([s.precision for s in scores]))
        recall = float(np.mean([s.recall for s in scores]))
        f1[name] = float(np.mean([s.f1 for s in scores]))
        table.add_row([name, len(scores), format_percent(precision),
                       format_percent(recall), f"{f1[name]:.3f}"])
    emit("ablation_detectors", table.render())

    # The deployed method must be competitive: within 25% of the best.
    best = max(f1.values())
    assert f1["variability"] >= best * 0.75
    # Every detector must beat the trivial all-negative baseline.
    for name, value in f1.items():
        assert value > 0.1, name
