"""Whole-program analyzer tests: project index, RPR010/RPR011, noqa.

Cross-file fixtures go through :func:`repro.lint.lint_sources` (an
in-memory multi-file project) or a hand-built :class:`ProjectIndex`;
filesystem behavior (CLI error paths, obs counters) runs against small
trees written to ``tmp_path``.
"""

import ast
import textwrap

import pytest

import repro.obs as obs
from repro.errors import ConfigError
from repro.lint import ProjectIndex, lint_sources, lint_text, run
from repro.lint.cli import main as lint_main
from repro.lint.engine import ModuleContext
from repro.lint.index import extract_facts
from repro.lint.noqa import parse_noqa


def codes(sources, **kwargs):
    dedented = {path: textwrap.dedent(src) for path, src in sources.items()}
    return [f.code for f in lint_sources(dedented, **kwargs)]


def make_index(sources):
    """ProjectIndex straight from ``{module: source}`` (no lint pass)."""
    facts = []
    for module, src in sources.items():
        src = textwrap.dedent(src)
        path = "src/" + module.replace(".", "/") + ".py"
        ctx = ModuleContext(path=path, module=module,
                            tree=ast.parse(src), lines=src.splitlines())
        facts.append(extract_facts(ctx))
    return ProjectIndex(facts)


# -- RPR010 unordered-iteration ---------------------------------------------

def test_inline_set_iteration_flagged():
    found = codes({"src/repro/core/loops.py": """
        def f():
            return [x for x in {"b", "a"}]
    """})
    assert "RPR010" in found


def test_module_set_iteration_flagged_across_files():
    found = codes({
        "src/repro/core/names.py": 'NAMES = {"b", "a"}\n',
        "src/repro/core/uses.py": (
            "from repro.core.names import NAMES\n\n"
            "def walk():\n"
            "    return [n for n in NAMES]\n"),
    })
    assert "RPR010" in found


def test_sorted_iteration_not_flagged():
    found = codes({"src/repro/core/loops.py": """
        NAMES = {"b", "a"}

        def walk():
            return [n for n in sorted(NAMES)]
    """})
    assert "RPR010" not in found


def test_order_free_consumers_not_flagged():
    found = codes({"src/repro/core/loops.py": """
        NAMES = {"b", "a"}

        def f():
            return sum(len(n) for n in NAMES), {n.upper() for n in NAMES}
    """})
    assert "RPR010" not in found


# -- RPR011 seedtree-label-collision ----------------------------------------

def test_duplicate_labels_across_files_flagged():
    findings = lint_sources({
        "src/repro/core/a.py": (
            "def f(tree):\n    return tree.generator('dup-label')\n"),
        "src/repro/core/b.py": (
            "def g(tree):\n    return tree.generator('dup-label')\n"),
    })
    eleven = [f for f in findings if f.code == "RPR011"]
    assert {f.path for f in eleven} == \
        {"src/repro/core/a.py", "src/repro/core/b.py"}


def test_allow_reuse_not_flagged():
    found = codes({
        "src/repro/core/a.py": (
            "def f(tree):\n"
            "    return tree.generator('shared', allow_reuse=True)\n"),
        "src/repro/core/b.py": (
            "def g(tree):\n"
            "    return tree.generator('shared', allow_reuse=True)\n"),
    })
    assert "RPR011" not in found


def test_literal_overlapping_template_flagged():
    findings = lint_sources({
        "src/repro/core/dynamic.py": (
            "def f(tree, name):\n"
            "    return tree.stream(f'lane-{name}')\n"),
        "src/repro/core/static.py": (
            "def g(tree):\n    return tree.generator('lane-7')\n"),
    })
    eleven = [f for f in findings if f.code == "RPR011"]
    assert len(eleven) == 1
    assert eleven[0].path == "src/repro/core/static.py"
    assert "lane-{}" in eleven[0].message


def test_distinct_labels_not_flagged():
    found = codes({
        "src/repro/core/a.py": (
            "def f(tree):\n    return tree.generator('alpha')\n"),
        "src/repro/core/b.py": (
            "def g(tree):\n    return tree.generator('beta')\n"),
    })
    assert "RPR011" not in found


def test_noqa_suppresses_cross_file_finding():
    findings = lint_sources({
        "src/repro/core/a.py": (
            "def f(tree):\n"
            "    return tree.generator('dup')  # repro: noqa RPR011\n"),
        "src/repro/core/b.py": (
            "def g(tree):\n    return tree.generator('dup')\n"),
    })
    assert [(f.path, f.code) for f in findings] == \
        [("src/repro/core/b.py", "RPR011")]


# -- project index ----------------------------------------------------------

def test_import_cycle_detected():
    index = make_index({
        "repro.core.a": "import repro.core.b\n",
        "repro.core.b": "import repro.core.a\n",
    })
    assert index.import_cycles() == [["repro.core.a", "repro.core.b"]]


def test_typing_only_import_excluded_from_graph():
    index = make_index({
        "repro.core.a": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import repro.core.b\n"),
        "repro.core.b": "import repro.core.a\n",
    })
    assert index.import_cycles() == []
    assert "repro.core.b" not in index.module_graph()["repro.core.a"]
    assert "repro.core.b" in \
        index.module_graph(include_typing=True)["repro.core.a"]


def test_resolve_follows_aliases():
    index = make_index({
        "repro.core.defs": "TABLE = {}\n",
        "repro.core.uses": "from repro.core.defs import TABLE as T\n",
    })
    assert index.resolve("repro.core.uses", "T") == \
        ("repro.core.defs", "TABLE")
    assert index.resolve("repro.core.uses", "missing") is None


# -- CLI error paths (satellite: empty / missing targets) -------------------

def test_run_rejects_missing_target(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        run([tmp_path / "nope"])


def test_run_rejects_target_without_python_files(tmp_path):
    (tmp_path / "README.txt").write_text("hi", encoding="utf-8")
    with pytest.raises(ConfigError, match="no Python files"):
        run([tmp_path])


def test_cli_exits_2_on_bad_targets(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert lint_main([str(empty)]) == 2
    assert "no Python files" in capsys.readouterr().err


# -- noqa edge cases (satellite) --------------------------------------------

def test_noqa_mixed_comma_space_code_list():
    assert parse_noqa("x  # repro: noqa RPR001, RPR003 RPR009") == \
        frozenset({"RPR001", "RPR003", "RPR009"})


def test_noqa_on_first_line_of_multiline_call_suppresses():
    findings = lint_text(
        "import time\n"
        "t = time.time(  # repro: noqa RPR001\n"
        ")\n", module="repro.core.fixture")
    assert findings == []


def test_noqa_on_continuation_line_does_not_suppress():
    findings = lint_text(
        "import time\n"
        "t = time.time(\n"
        ")  # repro: noqa RPR001\n", module="repro.core.fixture")
    assert [f.code for f in findings] == ["RPR001"]


# -- obs integration (satellite) --------------------------------------------

def _write_tree(root):
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text("A = 1\n", encoding="utf-8")
    (pkg / "beta.py").write_text("import time\n\n"
                                 "def f():\n"
                                 "    return time.time()\n",
                                 encoding="utf-8")
    return pkg


def test_lint_run_exports_obs_counters(tmp_path):
    pkg = _write_tree(tmp_path)
    obs.enable()
    try:
        run([pkg], root=tmp_path)
        run([pkg], root=tmp_path)
        counters = obs.snapshot()["counters"]
        calls = {row.name: row.calls for row in obs.tracer().totals()}
    finally:
        obs.disable()
    assert counters["lint.files.scanned"] == 4
    assert counters["lint.findings.RPR001"] == 2
    assert calls == {"lint.run": 2}
