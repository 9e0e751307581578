#!/usr/bin/env python
"""Regenerate the golden fixtures under ``tests/golden/``.

Run from the repo root::

    PYTHONPATH=src python scripts/regen_golden.py

Writes the campaign dataset digests (``digests.json``) and the pinned
congestion-detection output (``congestion_detection.json``).  Only
commit the result when a behaviour change was *intentional*: the
fixtures are the determinism contract that makes silent drift in the
campaign pipeline or the detector a tier-1 failure.
"""

from __future__ import annotations

import json
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT))

from repro.core.congestion import detect               # noqa: E402
from repro.core.export import dataset_digest          # noqa: E402
from repro.faults import FaultPlan                     # noqa: E402

from tests.fixtures_congestion import (                # noqa: E402
    GOLDEN_SHAPE, golden_pipeline, regression_dataset, serialize_report)

GOLDEN_PATH = _ROOT / "tests" / "golden" / "digests.json"
DETECTION_PATH = (_ROOT / "tests" / "golden"
                  / "congestion_detection.json")


def main() -> int:
    golden = {
        "_comment": ("Golden dataset digests: seed={seed} scale={scale} "
                     "{regions[0]} budget_servers={budget} days={days}. "
                     "Regenerate with scripts/regen_golden.py only when "
                     "an intentional behaviour change shifts the "
                     "dataset.").format(**GOLDEN_SHAPE),
        "faults_off": dataset_digest(
            golden_pipeline().topology_dataset()),
        "faults_default": dataset_digest(golden_pipeline(
            faults=FaultPlan.default()).topology_dataset()),
    }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n",
                           encoding="utf-8")
    print(json.dumps(golden, indent=1))
    print(f"wrote {GOLDEN_PATH}")

    detection = {
        "_comment": "Pinned detect() output over the multi-offset, "
                    "non-midnight-start dataset from "
                    "tests/fixtures_congestion.py: the "
                    "midnight-alignment contract. Regenerate with "
                    "scripts/regen_golden.py only when an intentional "
                    "behaviour change shifts detection.",
        "report": serialize_report(detect(regression_dataset(),
                                          threshold=0.5)),
    }
    DETECTION_PATH.write_text(json.dumps(detection, indent=1) + "\n",
                              encoding="utf-8")
    print(f"wrote {DETECTION_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
