"""Whole-program determinism rules (RPR010, RPR011).

These rules consume the :class:`~repro.lint.index.ProjectIndex` instead
of one module at a time, so they can see what no per-file pass can:
iteration over a set (or a runtime-mutated dict) defined in another
file, and :class:`~repro.rng.SeedTree` labels that collide across
files.  Either one would make the dataset digest depend on something
other than the seed.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

from .findings import Finding
from .index import ProjectIndex
from .rules import cross_file_rule


# --------------------------------------------------------------------------
# RPR010 unordered-iteration
# --------------------------------------------------------------------------

@cross_file_rule("RPR010", "unordered-iteration",
                 "iteration over a set/frozenset (or a mutable-global "
                 "dict view) without sorted(); iteration order would "
                 "differ between processes and perturb emitted events, "
                 "rows, or RNG draws")
def check_unordered_iteration(index: ProjectIndex) -> Iterator[Finding]:
    for facts in index.files:
        if not (facts.module or "").startswith("repro"):
            continue
        for site in facts.iterations:
            if site.symbol is None:
                # Inline set expression: unordered by construction.
                yield Finding(
                    facts.path, site.line, "RPR010",
                    f"iterating unordered set expression "
                    f"`{site.detail}`; wrap it in sorted() so the "
                    f"order is identical in every process")
                continue
            resolved = index.resolve(facts.module, site.symbol)
            if resolved is None:
                continue
            binding = index.binding(*resolved)
            if binding is None:
                continue
            if binding.kind == "set" and not site.view:
                yield Finding(
                    facts.path, site.line, "RPR010",
                    f"iterating module-level set {resolved[1]!r} "
                    f"(defined in {resolved[0]}) without sorted(); "
                    f"set order differs between processes")
            elif site.view and binding.kind == "dict" \
                    and _is_runtime_mutated(index, resolved):
                yield Finding(
                    facts.path, site.line, "RPR010",
                    f"iterating a view of runtime-mutated module dict "
                    f"{resolved[1]!r} (defined in {resolved[0]}) "
                    f"without sorted(); insertion order depends on "
                    f"mutation history")


def _is_runtime_mutated(index: ProjectIndex,
                        target: Tuple[str, str]) -> bool:
    for facts in index.files:
        if facts.module is None:
            continue
        for _line, dotted in facts.mutations:
            if index.resolve(facts.module, dotted) == target:
                return True
    return False


# --------------------------------------------------------------------------
# RPR011 seedtree-label-collision
# --------------------------------------------------------------------------

def _template_regex(template: str) -> "re.Pattern[str]":
    parts = [re.escape(part) for part in template.split("{}")]
    return re.compile("^" + ".+".join(parts) + "$")


@cross_file_rule("RPR011", "seedtree-label-collision",
                 "two call sites derive SeedTree streams from the same "
                 "(or an overlapping) label; they would silently share "
                 "an RNG stream - disambiguate the labels or pass "
                 "allow_reuse=True where re-derivation is intended")
def check_seedtree_label_collisions(index: ProjectIndex) -> Iterator[Finding]:
    # Site tuples: (template, dynamic, path, line, module).
    sites: List[Tuple[str, bool, str, int, str]] = []
    for facts in index.files:
        if not (facts.module or "").startswith("repro"):
            continue
        for label in facts.labels:
            if label.allow_reuse or label.method == "seed":
                continue
            sites.append((label.template, label.dynamic, facts.path,
                          label.line, facts.module or ""))
    sites.sort()

    # Exact duplicates (literal==literal, template==template).
    by_template: Dict[Tuple[str, bool], List[Tuple[str, int]]] = \
        defaultdict(list)
    for template, dynamic, path, line, _module in sites:
        by_template[(template, dynamic)].append((path, line))
    for (template, dynamic), locations in sorted(by_template.items()):
        if len(locations) < 2:
            continue
        shape = "label template" if dynamic else "label"
        others = ", ".join(f"{p}:{n}" for p, n in locations)
        for path, line in locations:
            yield Finding(
                path, line, "RPR011",
                f"SeedTree {shape} {template!r} is requested at "
                f"{len(locations)} call sites ({others}); identical "
                f"labels share one RNG stream")

    # Literal-inside-template overlap: f"story-{name}" swallows the
    # literal "story-cogitant" if a story is ever named "cogitant".
    literals = [(t, p, n) for t, dyn, p, n, _m in sites if not dyn]
    templates = [(t, p, n) for t, dyn, p, n, _m in sites if dyn]
    for template, tpath, tline in templates:
        pattern = _template_regex(template)
        for literal, lpath, lline in literals:
            if (lpath, lline) == (tpath, tline):
                continue
            if pattern.match(literal):
                yield Finding(
                    lpath, lline, "RPR011",
                    f"SeedTree label {literal!r} overlaps the dynamic "
                    f"template {template!r} ({tpath}:{tline}); if the "
                    f"interpolation ever produces the same string the "
                    f"two sites share a stream")
