"""Cross-cloud workloads: the VM-pair matrix and provider choice.

The matrix must be bit-identical on two identically-built fleets, and
the provider-choice analysis must flow through the *unchanged*
differential-selection path.
"""

import pytest

from repro.core.crosscloud import (CrossCloudMatrix, provider_choice,
                                   run_matrix)
from repro.core.selection.differential import (DifferentialSelection,
                                               LatencyClass)
from repro.errors import SelectionError, ValidationError
from repro.experiments.scenario import build_scenario
from repro.report.crosscloud import render_matrix, render_provider_choice

SEED = 11
SCALE = 0.05
FLEET = ("aws", "openstack")


def fresh_scenario():
    return build_scenario(seed=SEED, scale=SCALE, stories=False,
                          providers=FLEET)


@pytest.fixture(scope="module")
def scenario():
    return fresh_scenario()


@pytest.fixture(scope="module")
def matrix(scenario):
    return run_matrix(scenario.fleet, regions_per_provider=1)


# -- matrix -----------------------------------------------------------------

def test_matrix_covers_all_ordered_pairs(matrix):
    n = len(matrix.endpoints)
    assert n == 3  # one region per provider
    assert matrix.n_pairs == n * (n - 1)
    assert matrix.providers == ("gcp", "aws", "openstack")
    seen = {(c.src_provider, c.src_region, c.dst_provider, c.dst_region)
            for c in matrix.cells}
    assert len(seen) == matrix.n_pairs


def test_matrix_cells_are_physical(matrix):
    for cell in matrix.cells:
        assert cell.reachable
        assert cell.rtt_ms > 0.0
        assert 0.0 <= cell.loss_rate < 1.0
        assert cell.throughput_mbps > 0.0


def test_matrix_has_cross_provider_cells(matrix):
    cross = [c for c in matrix.cells if c.cross_provider]
    assert cross, "a multi-provider fleet must produce x-cloud pairs"


def test_matrix_vms_are_cleaned_up(scenario, matrix):
    for platform in scenario.fleet:
        leftovers = [vm for vm in platform.vms()
                     if vm.name.startswith("xc-") and vm.is_running]
        assert leftovers == []


def test_matrix_fresh_fleets_deterministic():
    """Two freshly built fleets give identical cells."""
    first = run_matrix(fresh_scenario().fleet, regions_per_provider=1)
    second = run_matrix(fresh_scenario().fleet, regions_per_provider=1)
    assert first.cells == second.cells
    assert first.endpoints == second.endpoints


def test_matrix_rejects_bad_arguments(scenario):
    with pytest.raises(ValidationError):
        run_matrix(scenario.fleet, samples=0)


def test_matrix_cell_lookup(matrix):
    first = matrix.cells[0]
    assert matrix.cell(first.src_provider, first.src_region,
                       first.dst_provider, first.dst_region) is first
    with pytest.raises(SelectionError):
        matrix.cell("gcp", "nowhere1", "aws", "nowhere2")


def test_matrix_summary_and_rendering(matrix):
    summary = matrix.provider_pair_summary()
    assert summary, "reachable cells must summarize"
    for stats in summary.values():
        assert stats["median_rtt_ms"] > 0.0
        assert stats["median_throughput_mbps"] > 0.0
    text = render_matrix(matrix)
    assert "cross-cloud matrix" in text
    assert "per provider pair" in text


# -- provider choice --------------------------------------------------------

@pytest.fixture(scope="module")
def choice(scenario):
    return provider_choice(scenario.fleet, scenario.catalog,
                           scenario.clasp.prefix2as, "gcp", "aws",
                           seed=3)


def test_provider_choice_uses_the_stock_selector(choice):
    """The result is a plain DifferentialSelection relabelled into the
    synthetic region - proof the selection path ran unchanged."""
    assert isinstance(choice.selection, DifferentialSelection)
    assert choice.selection.region == "gcp-vs-aws"
    assert choice.label == "gcp-vs-aws"
    assert choice.selection.candidates
    assert choice.selection.selected
    for candidate in choice.selection.candidates:
        assert candidate.region == "gcp-vs-aws"
        assert candidate.latency_class in LatencyClass


def test_provider_choice_winner_counts(choice):
    counts = choice.winner_counts()
    assert set(counts) == {"gcp", "aws", "comparable"}
    assert sum(counts.values()) == len(choice.selection.candidates)


def test_provider_choice_is_deterministic():
    """Identically-built scenarios: identical candidates and picks.
    (Reruns on the *same* fleet attach fresh VM leaf hosts, so the
    guarantee is across builds, like the matrix's.)"""
    results = []
    for _ in range(2):
        sc = fresh_scenario()
        results.append(provider_choice(sc.fleet, sc.catalog,
                                       sc.clasp.prefix2as,
                                       "gcp", "openstack", seed=3))
    a, b = results
    assert a.selection.candidates == b.selection.candidates
    assert a.selection.server_ids() == b.selection.server_ids()


def test_provider_choice_needs_two_providers(scenario):
    with pytest.raises(ValidationError):
        provider_choice(scenario.fleet, scenario.catalog,
                        scenario.clasp.prefix2as, "gcp", "gcp")


def test_provider_choice_rendering(choice):
    text = render_provider_choice(choice)
    assert "provider choice gcp-vs-aws" in text
    assert "selected servers" in text
    assert "gcp lower" in text
