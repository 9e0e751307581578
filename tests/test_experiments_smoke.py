"""Smoke-run every paper experiment module on a tiny shared cache.

The benchmarks exercise these at a larger scale; here we verify every
run/render pair executes and produces structurally sane results even
on a very small world.
"""

import pytest

from repro.cloud.regions import PAPER_US_REGIONS
from repro.experiments import (
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    table1,
)
from repro.experiments.runner import ExperimentCache


@pytest.fixture(scope="module")
def tiny_cache():
    cache = ExperimentCache(seed=13, scale=0.08, days=3)
    # Pre-run the shared campaigns at a short length.
    cache.topology_dataset()
    cache.differential_dataset()
    return cache


def test_table1(tiny_cache):
    result = table1.run(tiny_cache)
    text = table1.render(result)
    assert len(result.rows) == 5
    assert "coverage" in text
    for row in result.rows:
        assert 0 < row.coverage <= 1


def test_fig2(tiny_cache):
    result = fig2.run(tiny_cache)
    text = fig2.render(result)
    assert "elbow" in text
    assert set(result.day_fractions) == \
        set(PAPER_US_REGIONS)
    assert 0.05 <= result.chosen_threshold <= 0.95


def test_fig3(tiny_cache):
    result = fig3.run(tiny_cache)
    text = fig3.render(result)
    assert result.ts.size > 0
    assert result.n_congested_hours >= 1
    assert "congested hours" in text
    assert len(result.figure_series()) == 2


def test_fig4(tiny_cache):
    result = fig4.run(tiny_cache)
    text = fig4.render(result)
    assert set(result.panels) == {"4a topology (premium)",
                                  "4b differential premium",
                                  "4c differential standard"}
    assert result.panels["4a topology (premium)"].points
    assert "200-600" in text


def test_fig5(tiny_cache):
    result = fig5.run(tiny_cache)
    text = fig5.render(result)
    assert result.all_deltas("download").size > 0
    assert "std faster" in text
    assert 0.0 <= result.modest_delta_fraction() <= 1.0


def test_fig6(tiny_cache):
    result = fig6.run(tiny_cache)
    text = fig6.render(result)
    assert result.panels["us-east1"] or result.panels["us-west1"]
    assert "congestion probability" in text


def test_fig7(tiny_cache):
    result = fig7.run(tiny_cache)
    text = fig7.render(result)
    for region in PAPER_US_REGIONS:
        assert result.all_us(region)
    assert "R" in text or "o" in text


def test_fig8(tiny_cache):
    result = fig8.run(tiny_cache)
    text = fig8.render(result)
    assert result.summaries
    assert "isp" in text
    lo, hi = result.isp_fraction_range("topology")
    assert 0.0 <= lo <= hi <= 1.0
