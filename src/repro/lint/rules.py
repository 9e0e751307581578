"""The rule table and every invariant check.

Codes are stable and documented in README.md; :data:`RULES` is the
catalogue (RPR000 ``parse-error`` is the engine's own, for a file that
does not parse).  Each row names a rule's code, name, summary and the
checks that emit it.  A check may serve several rules - one call walk
enforces every banned call (:data:`_CALL_POLICY`), one import walk the
layer order plus every import policy (:data:`_IMPORT_POLICY`) - so the
engine runs each selected check once and keeps only the findings whose
code was selected.

File checks take a :class:`~repro.lint.index.ModuleContext`.  The
cross-file checks (RPR010, RPR011) take the
:class:`~repro.lint.index.ProjectIndex` and run once per lint run,
after the per-file pass, so they see what no per-file pass can:
iteration over a set (or a runtime-mutated dict) defined in another
file, and :class:`~repro.rng.SeedTree` labels that collide across
files.  Either would make the dataset digest depend on something other
than the seed.
"""

from __future__ import annotations

import ast
import re
from itertools import groupby
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

from ..errors import ConfigError
from .findings import Finding
from .index import ModuleContext, ProjectIndex, _dotted, _imported_modules

__all__ = ["LAYERS", "RULES", "Rule", "all_rules", "get_rule"]

#: Lowest layer first.  A module may import its own layer and lower
#: layers; importing a *higher* layer is a violation (RPR004).
LAYERS: Tuple[str, ...] = ("netsim", "cloud", "tools", "core", "experiments")


def _under(module: Optional[str], package: str) -> bool:
    """Whether dotted *module* is *package* or inside it."""
    return module == package or (module or "").startswith(package + ".")


def _canonical_call(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a call target, resolved through imports.

    Returns ``None`` when the leading name was not introduced by an
    import (attribute access on local objects stays unflagged).
    """
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = aliases.get(head)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


# --------------------------------------------------------------------------
# RPR001 / RPR006 / RPR008 banned calls
# --------------------------------------------------------------------------

#: Exact call targets that read wall clocks or OS entropy.  The
#: duration-only perf-counter family is NOT here: it cannot leak an
#: absolute date, so RPR008 governs it with a repro.obs carve-out.
_NONDET_CALLS = frozenset({
    "time.time", "time.time_ns",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Duration-only wall-clock reads.  These are allowed *solely* inside
#: repro.obs, where they become span totals for profiling - a
#: scoped carve-out from the RPR001 wall-clock ban.
_PERF_COUNTER_CALLS = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
})

#: (code, exact targets, banned target prefixes, exempt package,
#: message).  Every random./secrets. call is entropy; only repro.rng
#: may talk to numpy.random directly.
_CALL_POLICY = (
    ("RPR001", _NONDET_CALLS, ("random.", "secrets."), None,
     "nondeterministic call {target}() - derive randomness from "
     "SeedTree and time from simclock"),
    ("RPR006", frozenset(), ("numpy.random.",), "repro.rng",
     "direct numpy.random use ({target}); construct generators via "
     "SeedTree.generator(label) in repro.rng"),
    ("RPR008", _PERF_COUNTER_CALLS, (), "repro.obs",
     "wall-clock profiling call {target}() outside repro.obs; wrap the "
     "region in an obs span instead so wall-time stays in the profile"),
)


def check_calls(ctx: ModuleContext) -> Iterator[Finding]:
    policies = [row for row in _CALL_POLICY
                if row[3] is None or not _under(ctx.module, row[3])]
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        target = _canonical_call(node, ctx.aliases)
        if target is None:
            continue
        for code, exact, prefixes, _exempt, message in policies:
            if target in exact or target.startswith(prefixes):
                yield Finding(ctx.path, node.lineno, code,
                              message.format(target=target))


# --------------------------------------------------------------------------
# RPR002 magic-unit-literal
# --------------------------------------------------------------------------

#: Conversion factors that must come from repro.units (8 = bits/byte,
#: 1000/1e6/1e9 = SI steps between kbit/Mbit/Gbit and KB/MB/GB).
_MAGIC_UNIT_VALUES = frozenset({8, 1000, 1_000_000, 1_000_000_000})

_UNIT_SUFFIXES = ("_mbps", "_bytes", "_ms", "_gb")


def _is_magic_constant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and float(node.value) in _MAGIC_UNIT_VALUES)


def _is_unit_name(identifier: str) -> bool:
    low = identifier.lower()
    return any(low.endswith(suffix) or (suffix + "_") in low
               for suffix in _UNIT_SUFFIXES)


def _mentions_unit_name(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_unit_name(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _is_unit_name(sub.attr):
            return True
    return False


def check_magic_unit_literals(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.module == "repro.units":
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.BinOp):
            continue
        if not isinstance(node.op, (ast.Mult, ast.Div)):
            continue
        left, right = node.left, node.right
        if _is_magic_constant(right):
            const, other = right, left
        elif _is_magic_constant(left):
            const, other = left, right
        else:
            continue
        if _mentions_unit_name(other):
            assert isinstance(const, ast.Constant)
            yield Finding(ctx.path, node.lineno, "RPR002",
                          f"magic unit literal {const.value!r} in "
                          f"arithmetic on a unit-suffixed value; use a "
                          f"repro.units conversion helper")


# --------------------------------------------------------------------------
# RPR003 bare-builtin-raise / RPR005 bare-except
# --------------------------------------------------------------------------

_BUILTIN_RAISES = frozenset({"ValueError", "RuntimeError", "KeyError", "Exception"})


def check_error_handling(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ctx.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(ctx.path, node.lineno, "RPR005",
                          "bare except: catches everything including "
                          "KeyboardInterrupt; name the exception type")
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in _BUILTIN_RAISES:
            yield Finding(ctx.path, node.lineno, "RPR003",
                          f"raise of builtin {exc.id}; use a ReproError "
                          f"subclass from repro.errors")


# --------------------------------------------------------------------------
# RPR004 / RPR007 / RPR008 import policy
# --------------------------------------------------------------------------

#: (code, importer package, repro subpackages, whether those are the
#: only ones allowed (else: the ones banned), message).
#:
#: * Provider vocabulary stays leaf data: ``repro.core`` is already
#:   above the cloud layer, ``repro.engine`` is unlayered, so both need
#:   this explicit ban.
#: * Domain objects reach the engine as opaque payloads, never as
#:   imports, so the instrumentation seam can never grow an upward
#:   dependency on the layers it instruments; ``obs`` is allowed
#:   because metrics plumbing lives there, below the engine.
#: * Keeping obs below every simulation layer guarantees
#:   instrumentation can observe the stack but never reach into it.
_IMPORT_POLICY = (
    ("RPR004", "repro.cloud.providers", frozenset({"core", "engine"}), False,
     "provider module imports {imported}; repro.cloud.providers is leaf "
     "vocabulary and may not depend on repro.{sub}"),
    ("RPR007", "repro.engine",
     frozenset({"units", "errors", "rng", "simclock", "engine", "obs"}), True,
     "repro.engine imports {imported}; the engine may depend only on "
     "repro.units/errors/rng/simclock/obs - pass domain objects in as "
     "opaque payloads instead"),
    ("RPR008", "repro.obs", frozenset({"units", "errors", "simclock", "obs"}),
     True,
     "repro.obs imports {imported}; obs may depend only on "
     "repro.units/errors/simclock so it can observe every layer without "
     "joining any"),
)


def _module_layer(module: Optional[str]) -> Optional[int]:
    """Layer index of a dotted repro module, or None if unlayered."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return None


def check_imports(ctx: ModuleContext) -> Iterator[Finding]:
    policies = [row for row in _IMPORT_POLICY if _under(ctx.module, row[1])]
    own_layer = _module_layer(ctx.module)
    if not policies and own_layer is None:
        return
    # Each (line, code, subpackage) reports once; a layering finding is
    # keyed apart, so an import a policy already reported on that line
    # may still be reported as pointing up the layer stack.
    seen: Set[Tuple] = set()
    for line, imported in _imported_modules(ctx):
        parts = imported.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            continue
        sub = parts[1]
        for code, _importer, subs, allowed, message in policies:
            if (sub in subs) != allowed and (line, code, sub) not in seen:
                seen.add((line, code, sub))
                yield Finding(ctx.path, line, code,
                              message.format(imported=imported, sub=sub))
                break
        else:
            other_layer = _module_layer(imported)
            if own_layer is None or other_layer is None \
                    or other_layer <= own_layer or (line, sub) in seen:
                continue
            seen.add((line, sub))
            yield Finding(ctx.path, line, "RPR004",
                          f"layer {LAYERS[own_layer]!r} imports higher layer "
                          f"{LAYERS[other_layer]!r} ({imported}); allowed "
                          f"order is {' -> '.join(LAYERS)}")


# --------------------------------------------------------------------------
# RPR010 unordered-iteration
# --------------------------------------------------------------------------

def check_unordered_iteration(index: ProjectIndex) -> Iterator[Finding]:
    # Every module-level binding some function mutates in place.
    mutated = {index.resolve(facts.module, dotted)
               for facts in index.files if facts.module
               for _line, dotted in facts.mutations}
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
            kind = index.modules[resolved[0]].bindings[resolved[1]]
            if kind == "set" and not site.view:
                yield Finding(
                    facts.path, site.line, "RPR010",
                    f"iterating module-level set {resolved[1]!r} "
                    f"(defined in {resolved[0]}) without sorted(); "
                    f"set order differs between processes")
            elif site.view and kind == "dict" and resolved in mutated:
                yield Finding(
                    facts.path, site.line, "RPR010",
                    f"iterating a view of runtime-mutated module dict "
                    f"{resolved[1]!r} (defined in {resolved[0]}) "
                    f"without sorted(); insertion order depends on "
                    f"mutation history")


# --------------------------------------------------------------------------
# RPR011 seedtree-label-collision
# --------------------------------------------------------------------------

def check_seedtree_label_collisions(index: ProjectIndex) -> Iterator[Finding]:
    # Site tuples: (template, dynamic, path, line).
    sites = sorted((label.template, label.dynamic, facts.path, label.line)
                   for facts in index.files
                   if (facts.module or "").startswith("repro")
                   for label in facts.labels)

    # Exact duplicates (literal==literal, template==template).
    for (template, dynamic), group in groupby(sites, key=lambda s: s[:2]):
        locations = [site[2:] for site in group]
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
    literals = [(t, p, n) for t, dyn, p, n in sites if not dyn]
    for template, tpath, tline in [(t, p, n) for t, dyn, p, n in sites if dyn]:
        parts = [re.escape(part) for part in template.split("{}")]
        pattern = re.compile("^" + ".+".join(parts) + "$")
        for literal, lpath, lline in literals:
            if (lpath, lline) != (tpath, tline) and pattern.match(literal):
                yield Finding(
                    lpath, lline, "RPR011",
                    f"SeedTree label {literal!r} overlaps the dynamic "
                    f"template {template!r} ({tpath}:{tline}); if the "
                    f"interpolation ever produces the same string the "
                    f"two sites share a stream")


# --------------------------------------------------------------------------
# the rule table
# --------------------------------------------------------------------------

Check = Callable[..., Iterable[Finding]]


class Rule(NamedTuple):
    """One invariant: its stable code and the checks that emit it."""

    code: str
    name: str
    summary: str
    checks: Tuple[Check, ...]
    #: Cross-file rules read the ProjectIndex, not one module.
    cross_file: bool = False


RULES: Tuple[Rule, ...] = (
    Rule("RPR001", "nondeterministic-call",
         "wall-clock / OS-entropy call; all randomness must flow through "
         "repro.rng.SeedTree and all time through repro.simclock",
         (check_calls,)),
    Rule("RPR002", "magic-unit-literal",
         "inline unit-conversion constant (8 / 1000 / 1e6 / 1e9) next to a "
         "*_mbps/*_bytes/*_ms/*_gb value; use the repro.units helpers",
         (check_magic_unit_literals,)),
    Rule("RPR003", "bare-builtin-raise",
         "raise of a builtin exception; raise a ReproError subclass from "
         "repro.errors so callers can catch one hierarchy at the boundary",
         (check_error_handling,)),
    Rule("RPR004", "layering-violation",
         "import that points up the layer stack; the declared order is "
         "netsim -> cloud -> tools -> core -> experiments (and "
         "repro.cloud.providers may not import repro.core/repro.engine)",
         (check_imports,)),
    Rule("RPR005", "bare-except",
         "bare `except:` swallows every exception including SystemExit; "
         "catch a ReproError subclass (or at minimum Exception)",
         (check_error_handling,)),
    Rule("RPR006", "unseeded-rng-construction",
         "numpy.random generator constructed outside repro.rng; request a "
         "stream from SeedTree.generator(label) instead",
         (check_calls,)),
    Rule("RPR007", "engine-isolation",
         "repro.engine imports a domain layer; the engine may import only "
         "repro.units/errors/rng/simclock/obs and itself",
         (check_imports,)),
    Rule("RPR008", "obs-confinement",
         "time.perf_counter-family call outside repro.obs, or repro.obs "
         "importing beyond repro.units/errors/simclock; wall-time is "
         "profiling data, never simulation data",
         (check_calls, check_imports)),
    Rule("RPR010", "unordered-iteration",
         "iteration over a set/frozenset (or a mutable-global dict view) "
         "without sorted(); iteration order would differ between "
         "processes and perturb emitted events, rows, or RNG draws",
         (check_unordered_iteration,), cross_file=True),
    Rule("RPR011", "seedtree-label-collision",
         "two call sites derive SeedTree streams from the same (or an "
         "overlapping) label; they would silently share an RNG stream - "
         "disambiguate the labels or pass allow_reuse=True where "
         "re-derivation is intended",
         (check_seedtree_label_collisions,), cross_file=True),
)

_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}


def all_rules() -> List[Rule]:
    """Every rule, ordered by code."""
    return list(RULES)


def get_rule(code: str) -> Rule:
    try:
        return _BY_CODE[code]
    except KeyError:
        raise ConfigError(f"unknown rule code {code!r}; "
                          f"known: {', '.join(_BY_CODE)}") from None
