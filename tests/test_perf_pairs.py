"""The paired-run verdict arithmetic of ``scripts/perf_pairs.py``."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "perf_pairs.py")


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_pairs"] = module  # dataclasses resolve it there
    spec.loader.exec_module(module)
    return module


def test_quartiles_interpolate_linearly(perf_pairs):
    assert perf_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert perf_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert perf_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_on_a_lower_is_better_metric(perf_pairs):
    base = [3.5, 3.6, 3.4, 3.55, 3.5, 3.45, 3.6, 3.5, 3.52, 3.48]
    change = [b - 0.5 for b in base]
    verdict = perf_pairs.compare(base, change, "lower")
    assert verdict.wins == 10
    assert verdict.gap == pytest.approx(0.5)
    assert verdict.gap > verdict.base_iqr
    assert verdict.gain
    assert verdict.worse_by < 0


def test_nine_of_ten_wins_is_enough_eight_is_not(perf_pairs):
    base = [10.0] * 10
    nine = [9.0] * 9 + [11.0]
    assert perf_pairs.compare(base, nine, "lower").wins == 9
    assert perf_pairs.compare(base, nine, "lower").gain
    eight = [9.0] * 8 + [11.0, 11.0]
    assert not perf_pairs.compare(base, eight, "lower").gain


def test_ties_count_for_neither_side(perf_pairs):
    base = [1.0] * 10
    change = [1.0] + [0.5] * 9
    verdict = perf_pairs.compare(base, change, "lower")
    assert verdict.wins == 9
    assert verdict.gain
    change = [1.0, 1.0] + [0.5] * 8
    assert not perf_pairs.compare(base, change, "lower").gain


def test_gap_must_exceed_the_base_iqr(perf_pairs):
    # Every pair won, but the medians differ by less than the base's
    # own spread between its quartiles.
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [b - 0.1 for b in base]
    verdict = perf_pairs.compare(base, change, "lower")
    assert verdict.wins == 10
    assert verdict.base_iqr == pytest.approx(4.5)
    assert not verdict.gain


def test_higher_is_better_metric(perf_pairs):
    base = [100.0] * 10
    verdict = perf_pairs.compare(base, [120.0] * 10, "higher")
    assert verdict.wins == 10 and verdict.gain
    assert verdict.worse_by == pytest.approx(-0.2)
    worse = perf_pairs.compare(base, [80.0] * 10, "higher")
    assert worse.wins == 0 and not worse.gain
    assert worse.worse_by == pytest.approx(0.2)


def test_compare_rejects_unpaired_input(perf_pairs):
    with pytest.raises(ValueError):
        perf_pairs.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        perf_pairs.compare([1.0], [1.0], "faster")
