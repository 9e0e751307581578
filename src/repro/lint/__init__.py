"""``repro.lint`` - whole-program invariant checker for the codebase.

The reproduction's headline claim (bit-for-bit reproducibility from one
integer seed) rests on conventions that ordinary tests cannot enforce:

* all randomness flows through :class:`repro.rng.SeedTree`,
* all unit conversions flow through :mod:`repro.units`,
* all raised errors derive from :class:`repro.errors.ReproError`,
* imports respect the ``netsim -> cloud -> tools -> core -> experiments``
  layering.

This package is a self-contained static-analysis pass over the repo's
own source, built on :mod:`ast`, in two layers:

* **per-file rules** (``RPR001`` ... ``RPR008``) see one parsed module
  at a time;
* **cross-file rules** (``RPR010``, ``RPR011``) consume a
  :class:`~repro.lint.index.ProjectIndex` - the whole ``src/`` tree
  distilled into per-file facts (module graph, symbol table, SeedTree
  label sites) - and catch what no single file can witness: unordered
  iteration over another module's state and RNG label collisions.

Each module is parsed and walked once; every rule reads the shared
node list and import-alias map on its :class:`ModuleContext`.  The
engine and observer registries are checked at runtime by the tests
(``tests/test_engine.py``, ``tests/test_alerts.py``), not here.

Violations are reported as :class:`Finding` records and gated in CI by
``tests/test_lint_clean.py``.  Individual lines opt out with a
``# repro: noqa RPRxxx`` comment.  A run reads files and writes none.

Run it as ``python -m repro.lint [paths]`` or ``repro lint``.
"""

from __future__ import annotations

from .engine import (LintResult, ModuleContext, lint_sources, lint_text,
                     run)
from .findings import Finding
from .index import FileFacts, ProjectIndex, extract_facts
from .rules import LAYERS, RULES, Rule, all_rules, get_rule

__all__ = [
    "Finding",
    "FileFacts",
    "LintResult",
    "ModuleContext",
    "ProjectIndex",
    "Rule",
    "LAYERS",
    "RULES",
    "all_rules",
    "extract_facts",
    "get_rule",
    "lint_sources",
    "lint_text",
    "run",
]
