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
* **cross-file rules** (``RPR009`` ... ``RPR012``) consume a
  :class:`~repro.lint.index.ProjectIndex` - the whole ``src/`` tree
  distilled into per-file facts (module graph, symbol table, SeedTree
  label sites, event taxonomy) - and check shard-safety invariants no
  single file can witness: mutable module state, unordered iteration,
  RNG label collisions, and event-handler exhaustiveness.

Violations are reported as :class:`Finding` records and gated in CI by
``tests/test_lint_clean.py``.  Individual lines opt out with a
``# repro: noqa RPRxxx`` comment; grandfathered findings live in a
checked-in baseline file (``lint-baseline.txt``).  Results are cached
incrementally by content hash, so warm runs only re-analyze files that
changed.

Run it as ``python -m repro.lint [paths]`` or ``repro lint``; add
``--format json`` for machine-readable output.
"""

from __future__ import annotations

from .baseline import load_baseline, write_baseline
from .cache import LintCache, content_key
from .engine import (LintResult, ModuleContext, lint_file, lint_sources,
                     lint_text, run)
from .findings import Finding
from .index import FileFacts, ProjectIndex, extract_facts
from .output import findings_to_json
from .rules import LAYERS, Rule, all_rules, get_rule
from .xrules import SHARD_SAFE_GLOBALS, shard_safe_globals

__all__ = [
    "Finding",
    "FileFacts",
    "LintCache",
    "LintResult",
    "ModuleContext",
    "ProjectIndex",
    "Rule",
    "LAYERS",
    "SHARD_SAFE_GLOBALS",
    "all_rules",
    "content_key",
    "extract_facts",
    "findings_to_json",
    "get_rule",
    "lint_file",
    "lint_sources",
    "lint_text",
    "load_baseline",
    "run",
    "shard_safe_globals",
    "write_baseline",
]
