"""Golden-dataset determinism: same seed => byte-identical dataset.

The digests in ``tests/golden/digests.json`` pin the exact dataset a
fixed campaign shape produces, with faults off and with the default
fault plan.  Any drift - a reordered RNG draw, a changed export
serialization, a fault decision keyed differently - fails here.

Regenerate intentionally with ``scripts/regen_golden.py``.
"""

import json
import pathlib

import pytest

from repro.core.export import dataset_digest
from repro.experiments.scenario import build_scenario
from repro.faults import FaultPlan

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "digests.json"

# Keep in sync with scripts/regen_golden.py.
SEED = 11
SCALE = 0.05
REGION = "us-west1"
BUDGET_SERVERS = 8
DAYS = 2


def _run_campaign(faults):
    scenario = build_scenario(seed=SEED, scale=SCALE, faults=faults)
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    dataset = clasp.run_campaign([plan], days=DAYS)
    return scenario, dataset


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_digest_faults_off(golden):
    _scenario, dataset = _run_campaign(None)
    assert dataset.lost_tests == 0
    assert dataset_digest(dataset) == golden["faults_off"]


def test_golden_digest_faults_default(golden):
    """With the default FaultPlan enabled, the campaign - including
    every injected fault, retry, and tagged loss - reproduces the
    committed digest exactly."""
    scenario, dataset = _run_campaign(FaultPlan.default())
    assert scenario.clasp.fault_injector is not None
    assert dataset_digest(dataset) == golden["faults_default"]


def test_golden_two_fresh_runs_identical():
    """Same seed, two full stack builds: byte-identical datasets."""
    _s1, first = _run_campaign(FaultPlan.default())
    _s2, second = _run_campaign(FaultPlan.default())
    assert dataset_digest(first) == dataset_digest(second)
    assert first.completed_tests == second.completed_tests
    assert first.lost == second.lost


def test_golden_faults_change_the_digest(golden):
    """Faults on vs off must not collide (the plans differ, so the
    datasets must too)."""
    assert golden["faults_off"] != golden["faults_default"]


class _KindRecorder:
    """Passive bus subscriber recording each event's kind and time."""

    def __init__(self):
        self.seen = []

    def on_event(self, event):
        self.seen.append((event.kind, event.ts))


@pytest.mark.parametrize("subscribers", [1, 4])
@pytest.mark.parametrize("batch", [False, True])
def test_golden_explicit_gcp_provider(golden, subscribers, batch):
    """``provider="gcp"`` routed through the provider abstraction must
    reproduce the pre-refactor digest byte-for-byte, on the scalar and
    the vectorized execution path, however many passive subscribers
    listen on the campaign bus."""
    scenario = build_scenario(seed=SEED, scale=SCALE, provider="gcp")
    assert scenario.clasp.platform.provider.name == "gcp"
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(REGION)
    plan = clasp.deploy_topology(REGION, selection,
                                 budget_servers=BUDGET_SERVERS)
    recorders = [_KindRecorder() for _ in range(subscribers)]
    dataset = clasp.run_campaign([plan], days=DAYS, observers=recorders,
                                 batch=batch)
    assert dataset.provider == "gcp"
    assert dataset_digest(dataset) == golden["faults_off"]
    assert recorders[0].seen
    assert all(r.seen == recorders[0].seen for r in recorders[1:])
