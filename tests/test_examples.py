"""The example scripts parse, document themselves, and run end to end
at a miniature scale."""

import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "tier_comparison.py",
            "congestion_monitoring.py", "topology_survey.py",
            "open_data_export.py"} <= names


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_and_has_docstring(example):
    source = example.read_text(encoding="utf-8")
    code = compile(source, str(example), "exec")
    assert code is not None
    assert source.lstrip().startswith(("#!", '"""')), example.name
    assert "Usage::" in source, f"{example.name} lacks usage docs"


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_help(example):
    result = subprocess.run(
        [sys.executable, str(example), "--help"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "usage" in result.stdout.lower()


def test_quickstart_runs_tiny(tmp_path):
    """One full example run end to end (smallest world, 2 days)."""
    example = next(p for p in EXAMPLES if p.name == "quickstart.py")
    result = subprocess.run(
        [sys.executable, str(example), "--scale", "0.05",
         "--days", "2", "--seed", "5"],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "Congestion detection" in result.stdout
    assert "Threshold sweep" in result.stdout


def test_package_docstring_quickstart_runs(capsys):
    """The quickstart in ``repro.__doc__`` runs as written."""
    _head, _sep, tail = repro.__doc__.partition("::\n")
    snippet = textwrap.dedent(tail)
    assert "Pipeline(" in snippet
    namespace = {}
    exec(compile(snippet, "repro.__doc__", "exec"), namespace)
    report, dataset = namespace["report"], namespace["dataset"]
    assert 0 < report.n_s_hours <= len(dataset)
    assert "s-hours" in capsys.readouterr().out
