"""Shared fixtures for the benchmark harness.

All paper benchmarks share one :class:`~repro.experiments.Pipeline`
(scenario + pilot scans + campaign datasets), so the expensive
longitudinal campaigns run once per pytest session.  Scale and duration
come from ``REPRO_SCALE`` / ``REPRO_DAYS`` / ``REPRO_SEED`` (defaults:
0.35 / 28 / 7; the paper's full size is scale 1.0 over 153 days); this
fixture is the only reader of those variables.

The hour-loop benches (``bench_campaign_engine``, ``bench_obs_overhead``,
``bench_alerts``) time the campaign alone, so they skip selection on
purpose: :func:`fixed_plan` builds a fresh story-free world and deploys
its first :data:`FIXED_SERVERS` U.S. servers from us-west1.

Each benchmark prints the paper-comparable rows through the ``emit``
fixture, which bypasses pytest's capture so the tables land in the
tee'd benchmark log.
"""

import os
import pathlib

import pytest

from repro.experiments import Pipeline, build_scenario
from repro.simclock import CAMPAIGN_START

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: The hour-loop benches' fixed shape (see :func:`fixed_plan`).
FIXED_SEED = 11
FIXED_SCALE = 0.1
FIXED_SERVERS = 10


def fixed_plan():
    """A freshly built world's clasp and its fixed us-west1 plan."""
    scenario = build_scenario(seed=FIXED_SEED, scale=FIXED_SCALE,
                              stories=False)
    ids = [s.server_id
           for s in scenario.catalog.servers(country="US")[:FIXED_SERVERS]]
    plan = scenario.clasp.orchestrator.deploy_topology(
        "us-west1", ids, float(CAMPAIGN_START))
    return scenario.clasp, plan


@pytest.fixture(scope="session")
def pipeline():
    """The session-wide pipeline."""
    env = os.environ
    return Pipeline(seed=int(env.get("REPRO_SEED", "7")),
                    scale=float(env.get("REPRO_SCALE", "0.35")),
                    days=int(env.get("REPRO_DAYS", "28")))


@pytest.fixture()
def emit(capsys):
    """Print a rendered experiment block outside pytest capture."""

    def _emit(name: str, text: str) -> None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n",
                                                encoding="utf-8")
        with capsys.disabled():
            print()
            print(text)

    return _emit
