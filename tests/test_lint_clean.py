"""CI gate: the whole source tree must satisfy its own invariants.

This is the test that makes ``repro.lint`` binding.  Any new
nondeterministic call, inline unit constant, builtin raise, bare except,
unseeded generator, upward layer import - or, since the whole-program
pass, any unordered iteration or SeedTree label collision - anywhere
under ``src/repro`` fails here with the offending file, line, and rule
code.  The tree is linted once per test module.
"""

from pathlib import Path

import pytest

from repro.lint import run

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def tree_result():
    return run([SRC], root=REPO_ROOT)


def test_source_tree_is_lint_clean(tree_result):
    result = tree_result
    assert result.files_checked > 50
    formatted = "\n".join(f.format() for f in result.findings)
    assert result.ok, (
        f"repro.lint found {len(result.findings)} new invariant "
        f"violation(s):\n{formatted}\n"
        f"Fix them or add a `# repro: noqa RPRxxx` with justification."
    )


def test_module_graph_is_cycle_free(tree_result):
    """No import cycles: import order never decides which module's
    top-level code runs first, so module state is built the same way
    from every entry point."""
    assert tree_result.index is not None
    cycles = tree_result.index.import_cycles()
    assert cycles == [], (
        f"import cycles would make module initialisation order "
        f"depend on the entry point: {cycles}")


def test_injected_violations_are_caught():
    """Every violation class the acceptance criteria name must trip."""
    from repro.lint import lint_text

    injected = {
        "RPR001": "import time\nts = time.time()\n",
        "RPR002": "def f(rate_mbps):\n    return rate_mbps * 1e6\n",
        "RPR003": "raise ValueError('x')\n",
        "RPR005": "try:\n    pass\nexcept:\n    pass\n",
        "RPR006": "import numpy as np\ng = np.random.default_rng()\n",
        "RPR010": "def f():\n    return [x for x in {'b', 'a'}]\n",
    }
    for code, source in injected.items():
        found = [f.code for f in lint_text(source,
                                           module="repro.core.injected")]
        assert code in found, f"{code} fixture was not caught: {found}"

    layering = lint_text("from repro.core import clasp\n",
                         module="repro.netsim.injected")
    assert [f.code for f in layering] == ["RPR004"]
