"""Whole-program analyzer tests: project index, RPR009-012, cache, output.

Cross-file fixtures go through :func:`repro.lint.lint_sources` (an
in-memory multi-file project) or a hand-built :class:`ProjectIndex`;
filesystem behavior (cache reuse, CLI error paths, obs counters) runs
against small trees written to ``tmp_path``.
"""

import ast
import json
import textwrap

import pytest

import repro.obs as obs
from repro.errors import ConfigError
from repro.lint import (LintCache, ProjectIndex, content_key,
                        findings_to_json, lint_sources, lint_text, run)
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.cli import main as lint_main
from repro.lint.engine import ModuleContext
from repro.lint.findings import Finding
from repro.lint.index import extract_facts
from repro.lint.noqa import parse_noqa
from repro.lint.xrules import SHARD_SAFE_GLOBALS


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


# -- RPR009 shard-unsafe-global ---------------------------------------------

def test_function_scope_mutation_of_module_global_flagged():
    found = codes({"src/repro/core/state.py": """
        CACHE = {}

        def put(key, value):
            CACHE[key] = value
    """})
    assert "RPR009" in found


def test_cross_module_mutation_reported_at_definition():
    findings = lint_sources({
        "src/repro/core/state.py": "TABLE = {}\n",
        "src/repro/core/writer.py": (
            "from repro.core.state import TABLE\n\n"
            "def put(k, v):\n"
            "    TABLE[k] = v\n"),
    })
    nine = [f for f in findings if f.code == "RPR009"]
    assert len(nine) == 1
    assert nine[0].path == "src/repro/core/state.py"
    assert "writer.py:4" in nine[0].message


def test_import_time_table_building_not_flagged():
    found = codes({"src/repro/core/tables.py": """
        ROWS = {}
        for name in ("a", "b"):
            ROWS[name] = len(name)
    """})
    assert "RPR009" not in found


def test_global_rebind_flagged_and_noqa_suppresses():
    source = """
        _active = None

        def activate():
            global _active
            _active = object()
    """
    assert "RPR009" in codes({"src/repro/core/switch.py": source})
    suppressed = source.replace(
        "_active = None", "_active = None  # repro: noqa RPR009")
    assert "RPR009" not in codes({"src/repro/core/switch.py": suppressed})


def test_allowlist_entries_are_justified():
    for (module, name), why in SHARD_SAFE_GLOBALS.items():
        assert module.startswith("repro"), (module, name)
        assert len(why.split()) >= 5, f"{module}.{name} needs a real reason"


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


# -- RPR012 event-exhaustiveness --------------------------------------------

_EVENTS_FIXTURE = """
    from typing import Any, ClassVar, Tuple

    class CampaignEvent:
        kind: ClassVar[str] = "event"

    class Foo(CampaignEvent):
        kind: ClassVar[str] = "foo-done"

    class Bar(CampaignEvent):
        kind: ClassVar[str] = "bar-done"
        blob: Any = None

    OPAQUE_FIELDS = frozenset({"blob"})

    EVENT_KINDS: Tuple[str, ...] = tuple(
        cls.kind for cls in (Foo, Bar))
"""

_OBSERVERS_FIXTURE = """
    class Observer:
        IGNORED_EVENTS = ()

        def on_event(self, event):
            pass

    class GoodObserver(Observer):
        IGNORED_EVENTS = ("bar-done",)

        def on_foo_done(self, event):
            pass
"""


def _events_project(events=_EVENTS_FIXTURE, observers=_OBSERVERS_FIXTURE):
    return lint_sources({
        "src/repro/engine/events.py": textwrap.dedent(events),
        "src/repro/engine/observers.py": textwrap.dedent(observers),
    }, select=["RPR012"])


def test_consistent_taxonomy_is_clean():
    assert _events_project() == []


def test_unregistered_event_class_flagged():
    findings = _events_project(events=_EVENTS_FIXTURE.replace(
        "(Foo, Bar)", "(Foo,)"))
    assert any("EVENT_KINDS" in f.message for f in findings)


def test_undeclared_opaque_field_flagged():
    findings = _events_project(events=_EVENTS_FIXTURE.replace(
        'frozenset({"blob"})', "frozenset()"))
    assert any("event_payload" in f.message and "blob" in f.message
               for f in findings)


def test_unhandled_event_kind_flagged():
    findings = _events_project(observers=_OBSERVERS_FIXTURE.replace(
        'IGNORED_EVENTS = ("bar-done",)', "IGNORED_EVENTS = ()"))
    assert any("neither handles nor ignores" in f.message
               and "'bar-done'" in f.message for f in findings)


def test_bogus_handler_name_flagged():
    findings = _events_project(observers=_OBSERVERS_FIXTURE.replace(
        "on_foo_done", "on_foo_finished"))
    assert any("on_foo_finished" in f.message for f in findings)


def test_unknown_ignored_kind_flagged():
    findings = _events_project(observers=_OBSERVERS_FIXTURE.replace(
        '("bar-done",)', '("bar-done", "ghost-kind")'))
    assert any("ghost-kind" in f.message for f in findings)


def test_duplicate_kind_string_flagged():
    findings = _events_project(events=_EVENTS_FIXTURE.replace(
        '"bar-done"', '"foo-done"'))
    assert any("share the kind" in f.message for f in findings)


def test_generic_on_event_observer_exempt():
    findings = _events_project(observers="""
        class Observer:
            def on_event(self, event):
                pass

        class Mirror(Observer):
            def on_event(self, event):
                pass
    """)
    assert findings == []


# -- RPR013 alert-rule-exhaustiveness ---------------------------------------

_RULES_FIXTURE = """
    from typing import ClassVar, Tuple

    class AlertRule:
        kind: ClassVar[str] = "rule"

    class ThresholdRule(AlertRule):
        kind: ClassVar[str] = "threshold"

    class BurnRateRule(AlertRule):
        kind: ClassVar[str] = "burn-rate"

    RULE_KINDS: Tuple[str, ...] = tuple(
        cls.kind for cls in (ThresholdRule, BurnRateRule))
"""

_ENGINE_FIXTURE = """
    class RuleEvaluator:
        def _eval_threshold(self, rule, now_ts):
            pass

        def _eval_burn_rate(self, rule, now_ts):
            pass
"""


def _rules_project(rules=_RULES_FIXTURE, engine=_ENGINE_FIXTURE):
    return lint_sources({
        "src/repro/alerts/rules.py": textwrap.dedent(rules),
        "src/repro/alerts/engine.py": textwrap.dedent(engine),
    }, select=["RPR013"])


def test_consistent_rule_taxonomy_is_clean():
    assert _rules_project() == []


def test_unregistered_rule_class_flagged():
    findings = _rules_project(rules=_RULES_FIXTURE.replace(
        "(ThresholdRule, BurnRateRule)", "(ThresholdRule,)"))
    assert any("RULE_KINDS" in f.message and "BurnRateRule" in f.message
               for f in findings)


def test_rule_without_literal_kind_flagged():
    findings = _rules_project(rules=_RULES_FIXTURE.replace(
        'kind: ClassVar[str] = "burn-rate"', "pass"))
    assert any("no literal" in f.message for f in findings)


def test_duplicate_rule_kind_flagged():
    findings = _rules_project(rules=_RULES_FIXTURE.replace(
        '"burn-rate"', '"threshold"'))
    assert any("share the kind" in f.message for f in findings)


def test_phantom_registry_entry_flagged():
    findings = _rules_project(rules=_RULES_FIXTURE.replace(
        "(ThresholdRule, BurnRateRule)",
        "(ThresholdRule, BurnRateRule, GhostRule)"))
    assert any("GhostRule" in f.message and "not an AlertRule" in f.message
               for f in findings)


def test_missing_eval_handler_flagged():
    findings = _rules_project(engine=_ENGINE_FIXTURE.replace(
        "_eval_burn_rate", "_eval_burns"))
    messages = " ".join(f.message for f in findings)
    assert "no handler for rule kind 'burn-rate'" in messages
    assert "_eval_burns" in messages


def test_missing_evaluator_class_flagged():
    findings = _rules_project(engine="class Other:\n    pass\n")
    assert any("no RuleEvaluator" in f.message for f in findings)


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


# -- incremental cache ------------------------------------------------------

def _write_tree(root):
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text("A = 1\n", encoding="utf-8")
    (pkg / "beta.py").write_text("import time\n\n"
                                 "def f():\n"
                                 "    return time.time()\n",
                                 encoding="utf-8")
    return pkg


def test_cache_reuses_unchanged_files(tmp_path):
    pkg = _write_tree(tmp_path)
    cache = tmp_path / "cache.json"
    first = run([pkg], root=tmp_path, cache=cache)
    assert (first.files_checked, first.files_reused) == (2, 0)
    second = run([pkg], root=tmp_path, cache=cache)
    assert (second.files_checked, second.files_reused) == (2, 2)
    assert [str(f) for f in second.findings] == \
        [str(f) for f in first.findings]
    # Editing one file invalidates exactly that file.
    (pkg / "alpha.py").write_text("A = 2\n", encoding="utf-8")
    third = run([pkg], root=tmp_path, cache=cache)
    assert (third.files_checked, third.files_reused) == (2, 1)


def test_cross_file_findings_survive_cache_hits(tmp_path):
    pkg = _write_tree(tmp_path)
    (pkg / "state.py").write_text(
        "CACHE = {}\n\ndef put(k, v):\n    CACHE[k] = v\n",
        encoding="utf-8")
    cache = tmp_path / "cache.json"
    cold = run([pkg], root=tmp_path, cache=cache)
    warm = run([pkg], root=tmp_path, cache=cache)
    assert warm.files_reused == warm.files_checked
    for result in (cold, warm):
        assert "RPR009" in [f.code for f in result.findings]


def test_corrupt_cache_treated_as_empty(tmp_path):
    pkg = _write_tree(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{not json", encoding="utf-8")
    result = run([pkg], root=tmp_path, cache=cache)
    assert result.files_reused == 0
    assert run([pkg], root=tmp_path, cache=cache).files_reused == 2


def test_content_key_changes_with_source_and_select():
    base = content_key("x = 1\n")
    assert content_key("x = 2\n") != base
    assert content_key("x = 1\n", select=["RPR001"]) != base
    assert content_key("x = 1\n") == base


def test_cache_prunes_deleted_files(tmp_path):
    pkg = _write_tree(tmp_path)
    cache = tmp_path / "cache.json"
    run([pkg], root=tmp_path, cache=cache)
    (pkg / "beta.py").unlink()
    run([pkg], root=tmp_path, cache=cache)
    store = LintCache(cache)
    assert store.get("src/repro/core/beta.py", content_key("")) is None
    payload = json.loads(cache.read_text(encoding="utf-8"))
    assert "src/repro/core/beta.py" not in payload["files"]


# -- CLI error paths (satellite: empty / missing targets) -------------------

def test_run_rejects_missing_target(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        run([tmp_path / "nope"])


def test_run_rejects_target_without_python_files(tmp_path):
    (tmp_path / "README.txt").write_text("hi", encoding="utf-8")
    with pytest.raises(ConfigError, match="no Python files"):
        run([tmp_path])


def test_cli_exits_2_on_bad_targets(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope"), "--no-cache"]) == 2
    assert "does not exist" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert lint_main([str(empty), "--no-cache"]) == 2
    assert "no Python files" in capsys.readouterr().err


# -- machine-readable output ------------------------------------------------

def _sample_findings():
    return ([Finding("src/repro/core/x.py", 3, "RPR001", "wall clock")],
            [Finding("src/repro/core/y.py", 7, "RPR003", "builtin raise")])


def test_json_output_shape():
    findings, baselined = _sample_findings()
    payload = json.loads(findings_to_json(findings, baselined,
                                          files_checked=5, files_reused=2))
    assert payload["files_checked"] == 5
    assert payload["files_reused"] == 2
    assert payload["findings"][0] == {
        "path": "src/repro/core/x.py", "line": 3,
        "code": "RPR001", "message": "wall clock"}
    assert len(payload["baselined"]) == 1


# -- noqa / baseline edge cases (satellite) ---------------------------------

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


def test_baseline_entry_without_comment_rejected(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("src/repro/core/x.py:3:RPR001\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="justification"):
        load_baseline(baseline)


def test_baseline_wildcard_entry_with_comment_loads(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "# header comment\n"
        "\n"
        "src/repro/core/x.py:*:RPR002  # legacy unit math, tracked\n",
        encoding="utf-8")
    assert load_baseline(baseline) == {"src/repro/core/x.py:*:RPR002"}


def test_write_baseline_round_trips_through_load(tmp_path):
    baseline = tmp_path / "baseline.txt"
    findings, _ = _sample_findings()
    assert write_baseline(baseline, findings) == 1
    assert "TODO: justify or fix" in baseline.read_text(encoding="utf-8")
    assert load_baseline(baseline) == {"src/repro/core/x.py:3:RPR001"}


# -- obs integration (satellite) --------------------------------------------

def test_lint_run_exports_obs_counters(tmp_path):
    pkg = _write_tree(tmp_path)
    obs.enable()
    try:
        run([pkg], root=tmp_path, cache=tmp_path / "cache.json")
        run([pkg], root=tmp_path, cache=tmp_path / "cache.json")
        counters = obs.snapshot()["counters"]
        spans = [s.name for s in obs.tracer().finished()]
    finally:
        obs.disable()
    assert counters["lint.files.scanned"] == 4
    assert counters["lint.files.reused"] == 2
    assert counters["lint.findings.RPR001"] == 2
    assert spans.count("lint.run") == 2
