"""Rule registry and the built-in invariant rules.

Codes are stable and documented in README.md:

========  ==========================  =============================================
code      name                        enforces
========  ==========================  =============================================
RPR000    parse-error                 every scanned file must parse
RPR001    nondeterministic-call       all entropy flows through ``repro.rng``
RPR002    magic-unit-literal          all conversions flow through ``repro.units``
RPR003    bare-builtin-raise          all errors derive from ``ReproError``
RPR004    layering-violation          ``netsim -> cloud -> tools -> core ->
                                      experiments`` import order
RPR005    bare-except                 no silent swallowing of every exception
RPR006    unseeded-rng-construction   generators are built only by ``SeedTree``
RPR007    engine-isolation            ``repro.engine`` imports only
                                      units/errors/rng/simclock/obs
RPR008    obs-confinement             wall-clock profiling
                                      (``time.perf_counter`` family) only
                                      inside ``repro.obs``, and ``repro.obs``
                                      imports only units/errors/simclock
RPR010    unordered-iteration         no unsorted iteration over sets (or
                                      mutable-global dict views)
RPR011    seedtree-label-collision    SeedTree stream labels are unique
                                      across the whole tree
========  ==========================  =============================================

Each single-file rule is a plain function ``(ModuleContext) ->
Iterable[Finding]`` registered with the :func:`rule` decorator.
Whole-program rules (RPR010/RPR011, in :mod:`repro.lint.xrules`) take a
:class:`~repro.lint.index.ProjectIndex` instead and register with
:func:`cross_file_rule`; the engine runs them once per lint run, after
the per-file pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import ModuleContext
    from .index import ProjectIndex

__all__ = ["LAYERS", "Rule", "SCOPE_FILE", "SCOPE_PROJECT", "all_rules",
           "cross_file_rule", "get_rule", "rule"]

RuleFunc = Callable[["ModuleContext"], Iterable[Finding]]
CrossFileRuleFunc = Callable[["ProjectIndex"], Iterable[Finding]]

#: Lowest layer first.  A module may import its own layer and lower
#: layers; importing a *higher* layer is a violation (RPR004).
LAYERS: Tuple[str, ...] = ("netsim", "cloud", "tools", "core", "experiments")

#: Rule scopes: per-file rules see one :class:`ModuleContext`;
#: project rules see the whole :class:`~repro.lint.index.ProjectIndex`.
SCOPE_FILE = "file"
SCOPE_PROJECT = "project"


@dataclass(frozen=True)
class Rule:
    """One registered invariant."""

    code: str
    name: str
    summary: str
    func: Callable[..., Iterable[Finding]]
    scope: str = SCOPE_FILE


# Populated once at import time by the decorators below.
_REGISTRY: Dict[str, Rule] = {}


def rule(code: str, name: str, summary: str) -> Callable[[RuleFunc], RuleFunc]:
    """Register a single-file invariant rule under *code*."""

    def decorate(func: RuleFunc) -> RuleFunc:
        if code in _REGISTRY:
            raise ConfigError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code, name, summary, func, SCOPE_FILE)
        return func

    return decorate


def cross_file_rule(code: str, name: str, summary: str
                    ) -> Callable[[CrossFileRuleFunc], CrossFileRuleFunc]:
    """Register a whole-program invariant rule under *code*.

    The decorated function receives the
    :class:`~repro.lint.index.ProjectIndex` of the entire lint target
    and runs exactly once per lint run, after the per-file pass.
    """

    def decorate(func: CrossFileRuleFunc) -> CrossFileRuleFunc:
        if code in _REGISTRY:
            raise ConfigError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code, name, summary, func, SCOPE_PROJECT)
        return func

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ConfigError(f"unknown rule code {code!r}; "
                          f"known: {', '.join(sorted(_REGISTRY))}") from None


# --------------------------------------------------------------------------
# shared AST helpers
# --------------------------------------------------------------------------

def _import_aliases(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Map local names to the canonical dotted module path they denote.

    ``import numpy as np``            -> ``{"np": "numpy"}``
    ``import os.path``                -> ``{"os": "os"}``
    ``from numpy import random``      -> ``{"random": "numpy.random"}``
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``

    Only import-introduced names are mapped, so a local variable that
    happens to be called ``random`` never triggers the determinism rule.
    """
    aliases: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    top = name.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to ``a.b.c``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _canonical_call(node: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a call target, resolved through imports.

    Returns ``None`` when the leading name was not introduced by an
    import (attribute access on local objects stays unflagged).
    """
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = aliases.get(head)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


def _iter_calls(ctx: "ModuleContext") -> Iterator[ast.Call]:
    for node in ctx.nodes:
        if isinstance(node, ast.Call):
            yield node


# --------------------------------------------------------------------------
# RPR001 nondeterministic-call
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

#: Whole modules whose every call is nondeterministic (or OS entropy).
_NONDET_PREFIXES = ("random.", "secrets.")


@rule("RPR001", "nondeterministic-call",
      "wall-clock / OS-entropy call; all randomness must flow through "
      "repro.rng.SeedTree and all time through repro.simclock")
def check_nondeterministic_calls(ctx: "ModuleContext") -> Iterator[Finding]:
    for call in _iter_calls(ctx):
        target = _canonical_call(call, ctx.aliases)
        if target is None:
            continue
        if target in _NONDET_CALLS or target.startswith(_NONDET_PREFIXES):
            yield Finding(ctx.path, call.lineno, "RPR001",
                          f"nondeterministic call {target}() - derive "
                          f"randomness from SeedTree and time from simclock")


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


@rule("RPR002", "magic-unit-literal",
      "inline unit-conversion constant (8 / 1000 / 1e6 / 1e9) next to a "
      "*_mbps/*_bytes/*_ms/*_gb value; use the repro.units helpers")
def check_magic_unit_literals(ctx: "ModuleContext") -> Iterator[Finding]:
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
# RPR003 bare-builtin-raise
# --------------------------------------------------------------------------

_BUILTIN_RAISES = frozenset({"ValueError", "RuntimeError", "KeyError", "Exception"})


@rule("RPR003", "bare-builtin-raise",
      "raise of a builtin exception; raise a ReproError subclass from "
      "repro.errors so callers can catch one hierarchy at the boundary")
def check_bare_builtin_raises(ctx: "ModuleContext") -> Iterator[Finding]:
    for node in ctx.nodes:
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in _BUILTIN_RAISES:
            yield Finding(ctx.path, node.lineno, "RPR003",
                          f"raise of builtin {exc.id}; use a ReproError "
                          f"subclass from repro.errors")


# --------------------------------------------------------------------------
# RPR004 layering-violation
# --------------------------------------------------------------------------

def _module_layer(module: Optional[str]) -> Optional[int]:
    """Layer index of a dotted repro module, or None if unlayered."""
    if not module:
        return None
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return None


def _resolve_relative(ctx: "ModuleContext", node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted path of a relative import, or None if unresolvable."""
    if ctx.module is None:
        return None
    package = ctx.module if ctx.is_package else ctx.module.rpartition(".")[0]
    parts = package.split(".") if package else []
    ascend = node.level - 1
    if ascend > len(parts):
        return None
    base = parts[: len(parts) - ascend] if ascend else parts
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _imported_modules(ctx: "ModuleContext") -> Iterator[Tuple[int, str]]:
    """All (line, dotted-module) edges this module imports."""
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for name in node.names:
                yield node.lineno, name.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module
            else:
                base = _resolve_relative(ctx, node)
            if base is None:
                continue
            # ``from . import x`` depends on the sibling submodule, not
            # on the importer's own parent package - yielding the bare
            # package there would make every such import a pseudo-cycle
            # with the package __init__.
            if node.module is not None or node.level == 0:
                yield node.lineno, base
            # ``from repro import core`` binds a submodule: also consider
            # each imported name as a module path one level deeper.
            for name in node.names:
                if name.name != "*":
                    yield node.lineno, f"{base}.{name.name}"


#: Provider vocabulary modules must stay leaf data: they may not pull
#: in the orchestration layers (``repro.core`` is already above the
#: cloud layer; ``repro.engine`` is unlayered so it needs this
#: explicit ban).
_PROVIDER_PACKAGE = "repro.cloud.providers"
_PROVIDER_BANNED = ("repro.core", "repro.engine")


def _provider_banned_import(imported: str) -> Optional[str]:
    for banned in _PROVIDER_BANNED:
        if imported == banned or imported.startswith(banned + "."):
            return banned
    return None


@rule("RPR004", "layering-violation",
      "import that points up the layer stack; the declared order is "
      "netsim -> cloud -> tools -> core -> experiments (and "
      "repro.cloud.providers may not import repro.core/repro.engine)")
def check_layering(ctx: "ModuleContext") -> Iterator[Finding]:
    own_layer = _module_layer(ctx.module)
    module = ctx.module or ""
    is_provider = (module == _PROVIDER_PACKAGE
                   or module.startswith(_PROVIDER_PACKAGE + "."))
    if own_layer is None and not is_provider:
        return
    seen = set()
    for line, imported in _imported_modules(ctx):
        if is_provider:
            banned = _provider_banned_import(imported)
            if banned is not None and (line, banned) not in seen:
                seen.add((line, banned))
                yield Finding(ctx.path, line, "RPR004",
                              f"provider module imports {imported}; "
                              f"{_PROVIDER_PACKAGE} is leaf vocabulary "
                              f"and may not depend on {banned}")
                continue
        if own_layer is None:
            continue
        other_layer = _module_layer(imported)
        if other_layer is None or other_layer <= own_layer:
            continue
        key = (line, imported.split(".")[1])
        if key in seen:
            continue
        seen.add(key)
        yield Finding(ctx.path, line, "RPR004",
                      f"layer {LAYERS[own_layer]!r} imports higher layer "
                      f"{LAYERS[other_layer]!r} ({imported}); allowed "
                      f"order is {' -> '.join(LAYERS)}")


# --------------------------------------------------------------------------
# RPR005 bare-except
# --------------------------------------------------------------------------

@rule("RPR005", "bare-except",
      "bare `except:` swallows every exception including SystemExit; "
      "catch a ReproError subclass (or at minimum Exception)")
def check_bare_except(ctx: "ModuleContext") -> Iterator[Finding]:
    for node in ctx.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(ctx.path, node.lineno, "RPR005",
                          "bare except: catches everything including "
                          "KeyboardInterrupt; name the exception type")


# --------------------------------------------------------------------------
# RPR006 unseeded-rng-construction
# --------------------------------------------------------------------------

#: Only repro.rng may talk to numpy.random directly.
_RNG_HOME_MODULE = "repro.rng"


@rule("RPR006", "unseeded-rng-construction",
      "numpy.random generator constructed outside repro.rng; request a "
      "stream from SeedTree.generator(label) instead")
def check_rng_construction(ctx: "ModuleContext") -> Iterator[Finding]:
    if ctx.module == _RNG_HOME_MODULE:
        return
    for call in _iter_calls(ctx):
        target = _canonical_call(call, ctx.aliases)
        if target is None:
            continue
        if target.startswith("numpy.random."):
            yield Finding(ctx.path, call.lineno, "RPR006",
                          f"direct numpy.random use ({target}); construct "
                          f"generators via SeedTree.generator(label) in "
                          f"repro.rng")


# --------------------------------------------------------------------------
# RPR007 engine-isolation
# --------------------------------------------------------------------------

#: The only repro subpackages/modules repro.engine may import.  Domain
#: objects (VMs, schedules, datasets) reach the engine as opaque duck-
#: typed payloads, never as imports, so the instrumentation seam can
#: never grow an upward dependency on the layers it instruments.
#: ``obs`` is allowed because metrics plumbing (the shared histogram
#: shape, the registry observers feed) lives there, and obs itself sits
#: below the engine in the dependency order (see RPR008).
_ENGINE_ALLOWED = frozenset(
    {"units", "errors", "rng", "simclock", "engine", "obs"})


@rule("RPR007", "engine-isolation",
      "repro.engine imports a domain layer; the engine may import only "
      "repro.units/errors/rng/simclock/obs and itself")
def check_engine_isolation(ctx: "ModuleContext") -> Iterator[Finding]:
    if not (ctx.module or "").startswith("repro.engine"):
        return
    seen = set()
    for line, imported in _imported_modules(ctx):
        parts = imported.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            continue
        if parts[1] in _ENGINE_ALLOWED:
            continue
        key = (line, parts[1])
        if key in seen:
            continue
        seen.add(key)
        yield Finding(ctx.path, line, "RPR007",
                      f"repro.engine imports {imported}; the engine may "
                      f"depend only on repro.units/errors/rng/simclock/obs "
                      f"- pass domain objects in as opaque payloads instead")


# --------------------------------------------------------------------------
# RPR008 obs-confinement
# --------------------------------------------------------------------------

#: Duration-only wall-clock reads.  These are allowed *solely* inside
#: repro.obs, where they become span annotations for profiling - a
#: scoped carve-out from the RPR001 wall-clock ban.
_PERF_COUNTER_CALLS = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
})

#: The only repro subpackages/modules repro.obs may import.  Keeping
#: obs below every simulation layer guarantees instrumentation can
#: observe the stack but never reach into it.
_OBS_ALLOWED = frozenset({"units", "errors", "simclock", "obs"})

#: The one package where wall-clock profiling may live.
_OBS_HOME_PREFIX = "repro.obs"


def _in_obs(module: Optional[str]) -> bool:
    return (module or "").startswith(_OBS_HOME_PREFIX)


@rule("RPR008", "obs-confinement",
      "time.perf_counter-family call outside repro.obs, or repro.obs "
      "importing beyond repro.units/errors/simclock; wall-time is a "
      "span annotation, never simulation data")
def check_obs_confinement(ctx: "ModuleContext") -> Iterator[Finding]:
    if _in_obs(ctx.module):
        # Inside obs the perf-counter family is legal; police imports.
        seen = set()
        for line, imported in _imported_modules(ctx):
            parts = imported.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            if parts[1] in _OBS_ALLOWED:
                continue
            key = (line, parts[1])
            if key in seen:
                continue
            seen.add(key)
            yield Finding(ctx.path, line, "RPR008",
                          f"repro.obs imports {imported}; obs may depend "
                          f"only on repro.units/errors/simclock so it can "
                          f"observe every layer without joining any")
        return
    for call in _iter_calls(ctx):
        target = _canonical_call(call, ctx.aliases)
        if target in _PERF_COUNTER_CALLS:
            yield Finding(ctx.path, call.lineno, "RPR008",
                          f"wall-clock profiling call {target}() outside "
                          f"repro.obs; wrap the region in an obs span "
                          f"instead so wall-time stays an annotation")
