"""CI gate: the whole source tree must satisfy its own invariants.

This is the test that makes ``repro.lint`` binding.  Any new
nondeterministic call, inline unit constant, builtin raise, bare except,
unseeded generator, upward layer import - or, since the whole-program
pass, any shard-unsafe global, unordered iteration, SeedTree label
collision, or unhandled engine event - anywhere under ``src/repro``
fails here with the offending file, line, and rule code.
"""

from pathlib import Path

from repro.lint import run
from repro.lint.xrules import SHARD_SAFE_GLOBALS

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.txt"


def _run_tree():
    return run([SRC], baseline=BASELINE if BASELINE.exists() else None,
               root=REPO_ROOT)


def test_source_tree_is_lint_clean():
    result = _run_tree()
    assert result.files_checked > 50
    formatted = "\n".join(f.format() for f in result.findings)
    assert result.ok, (
        f"repro.lint found {len(result.findings)} new invariant "
        f"violation(s):\n{formatted}\n"
        f"Fix them, add a `# repro: noqa RPRxxx` with justification, or "
        f"(last resort) baseline them in lint-baseline.txt."
    )


def test_module_graph_is_cycle_free():
    """Sharding precondition: no import cycles anywhere in the tree."""
    result = _run_tree()
    assert result.index is not None
    cycles = result.index.import_cycles()
    assert cycles == [], (
        f"import cycles would make shard import order significant: "
        f"{cycles}")


def test_shard_safe_allowlist_entries_still_exist():
    """Every RPR009 carve-out must name a live module-level binding -
    a stale allowlist entry is a carve-out nobody is using."""
    index = _run_tree().index
    for (module, name), why in sorted(SHARD_SAFE_GLOBALS.items()):
        assert why.strip(), f"{module}.{name} has an empty justification"
        assert index.binding(module, name) is not None, (
            f"SHARD_SAFE_GLOBALS entry ({module!r}, {name!r}) no longer "
            f"matches a module-level binding; remove or update it")


def test_injected_violations_are_caught():
    """Every violation class the acceptance criteria name must trip."""
    from repro.lint import lint_text

    injected = {
        "RPR001": "import time\nts = time.time()\n",
        "RPR002": "def f(rate_mbps):\n    return rate_mbps * 1e6\n",
        "RPR003": "raise ValueError('x')\n",
        "RPR005": "try:\n    pass\nexcept:\n    pass\n",
        "RPR006": "import numpy as np\ng = np.random.default_rng()\n",
        "RPR009": "CACHE = {}\ndef put(k, v):\n    CACHE[k] = v\n",
        "RPR010": "def f():\n    return [x for x in {'b', 'a'}]\n",
    }
    for code, source in injected.items():
        found = [f.code for f in lint_text(source,
                                           module="repro.core.injected")]
        assert code in found, f"{code} fixture was not caught: {found}"

    layering = lint_text("from repro.core import clasp\n",
                         module="repro.netsim.injected")
    assert [f.code for f in layering] == ["RPR004"]
