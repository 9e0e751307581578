"""Shared fixtures for the benchmark harness.

All benchmarks share one :class:`~repro.experiments.runner.ExperimentCache`
(scenario + pilot scans + campaign datasets), so the expensive
longitudinal campaigns run once per pytest session.  Scale and duration
come from ``REPRO_SCALE`` / ``REPRO_DAYS`` / ``REPRO_SEED`` (defaults:
0.35 / 28 / 7; the paper's full size is scale 1.0 over 153 days); this
fixture is the only reader of those variables.

Each benchmark prints the paper-comparable rows through the ``emit``
fixture, which bypasses pytest's capture so the tables land in the
tee'd benchmark log.
"""

import os
import pathlib

import pytest

from repro.experiments import ExperimentCache

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def cache():
    """The session-wide experiment cache."""
    env = os.environ
    return ExperimentCache(seed=int(env.get("REPRO_SEED", "7")),
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
