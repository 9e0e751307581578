"""Per-file facts and the whole-program project index.

The per-file rules in :mod:`repro.lint.rules` see one module at a time,
which is blind to two hazards for bit-for-bit determinism: iterating a
set (or a runtime-mutated dict) defined in another file, and duplicate
:class:`~repro.rng.SeedTree` labels in different files.  This module
closes that gap in two stages:

1. :func:`extract_facts` distils one parsed module into a
   :class:`FileFacts` record - imports, module-level bindings, mutation
   sites, set-iteration sites, seed-label call sites and the file's
   ``# repro: noqa`` map.
2. :class:`ProjectIndex` stitches the facts of every file into the
   whole-program view: the internal module graph (with cycle detection;
   ``if TYPE_CHECKING:`` imports are excluded) and a symbol table
   resolving imported names back to their defining module.

It also holds :class:`ModuleContext` and the import helpers the
per-file rules share.  The cross-file rules (``RPR010`` and ``RPR011``
in :mod:`repro.lint.rules`) consume only the index, never raw ASTs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .noqa import noqa_map

__all__ = [
    "FileFacts",
    "IterationSite",
    "LabelSite",
    "ModuleContext",
    "ProjectIndex",
    "extract_facts",
]

#: Constructor calls / literals whose result is an (unordered) set.
_SET_CALLS = frozenset({"set", "frozenset"})

#: Constructor calls whose result is a dict.
_DICT_CALLS = frozenset({
    "dict", "collections.defaultdict", "defaultdict",
    "collections.OrderedDict", "OrderedDict", "collections.Counter",
    "Counter",
})

#: Method calls that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "sort", "reverse",
    "add", "discard", "update", "clear", "pop", "popitem",
    "setdefault", "appendleft", "extendleft", "popleft",
})

#: Set methods whose *result* is a new set (iterating it is unordered).
_SET_PRODUCING_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})

#: Calls that consume an iterable order-insensitively, so feeding them
#: a set (directly or via a generator expression) cannot leak ordering.
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all",
    "len", "Counter", "collections.Counter",
})


# --------------------------------------------------------------------------
# import helpers (shared with the per-file rules)
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


def _dotted(node: ast.AST) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to ``a.b.c``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_relative(ctx: ModuleContext, node: ast.ImportFrom) -> Optional[str]:
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


def _imported_modules(ctx: ModuleContext) -> Iterator[Tuple[int, str]]:
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


# --------------------------------------------------------------------------
# fact records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to know about one parsed module.

    ``nodes`` and ``aliases`` are derived from ``tree`` once, at
    construction, so every rule and the fact extractor share one walk.
    """

    path: str                     #: display path (posix, repo-relative)
    module: Optional[str]         #: dotted module name, e.g. ``repro.netsim.tcp``
    tree: ast.AST                 #: parsed AST of the file
    lines: Sequence[str]          #: raw source lines (1-indexed via ``lines[i-1]``)
    is_package: bool = False      #: True for ``__init__.py`` files
    #: Every node of ``tree`` in :func:`ast.walk` order.
    nodes: Tuple[ast.AST, ...] = field(init=False, repr=False,
                                       compare=False)
    #: Import alias map: local name -> canonical dotted path.
    aliases: Mapping[str, str] = field(init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        nodes = tuple(ast.walk(self.tree))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "aliases", _import_aliases(nodes))


@dataclass(frozen=True)
class IterationSite:
    """One loop/comprehension that iterates a possibly-unordered value.

    ``symbol`` is ``None`` for inline set expressions (always unordered)
    and a dotted name otherwise, resolved against the index at rule
    time.  ``view`` marks ``.keys()/.values()/.items()`` iteration.
    """

    line: int
    detail: str
    symbol: Optional[str] = None
    view: bool = False


@dataclass(frozen=True)
class LabelSite:
    """One ``SeedTree.generator/stream`` call with a static label and
    no ``allow_reuse=True``.

    ``template`` is the literal label, or the f-string with every
    interpolation collapsed to ``{}`` (``f"story-{name}"`` ->
    ``story-{}``); ``dynamic`` marks templates (vs exact literals).
    """

    line: int
    template: str
    dynamic: bool


@dataclass
class FileFacts:
    """Everything the cross-file rules need to know about one module."""

    path: str
    module: Optional[str]
    #: (line, dotted module, typing_only) - every import edge.
    imports: List[Tuple[int, str, bool]] = field(default_factory=list)
    #: Local name -> canonical dotted target (import alias map).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: Module-level name -> ``"set"`` / ``"dict"`` / ``"other"``, as
    #: first bound in source order.
    bindings: Dict[str, str] = field(default_factory=dict)
    #: (line, dotted target) - in-place mutation sites.
    mutations: List[Tuple[int, str]] = field(default_factory=list)
    iterations: List[IterationSite] = field(default_factory=list)
    labels: List[LabelSite] = field(default_factory=list)
    #: line -> suppressed codes (``{"*"}`` means all), for both phases.
    noqa: Dict[int, FrozenSet[str]] = field(default_factory=dict)


# --------------------------------------------------------------------------
# extraction helpers
# --------------------------------------------------------------------------


def _binding_kind(value: Optional[ast.AST],
                  aliases: Mapping[str, str]) -> str:
    """Classify the value of a module-level assignment: set/dict/other."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        target = _dotted(value.func)
        target = aliases.get(target, target)
        if target in _SET_CALLS:
            return "set"
        if target in _DICT_CALLS:
            return "dict"
    return "other"


def _fstring_template(node: ast.JoinedStr) -> Optional[str]:
    """Collapse an f-string to a template (``f"a-{x}"`` -> ``a-{}``)."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
        elif isinstance(value, ast.FormattedValue):
            parts.append("{}")
        else:
            return None
    return "".join(parts)


def _typing_only_lines(nodes: Iterable[ast.AST]) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks."""
    lines: Set[int] = set()
    for node in nodes:
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = _dotted(test) if isinstance(
            test, (ast.Name, ast.Attribute)) else None
        if name in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for sub in node.body:
                end = getattr(sub, "end_lineno", sub.lineno)
                lines.update(range(sub.lineno, end + 1))
    return lines


class _FactsVisitor(ast.NodeVisitor):
    """Single walk collecting every per-file fact, scope-aware.

    A stack of local-name sets tracks function scopes so that a local
    variable shadowing a module-level binding is never mistaken for a
    mutation of (or unordered iteration over) the module global.
    """

    def __init__(self, facts: FileFacts):
        self.facts = facts
        #: Stack of per-scope dicts: local name -> "set" | "other".
        self.scopes: List[Dict[str, str]] = []
        #: Function-nesting depth.  Mutations at depth 0 run once at
        #: import time, in source order, so only depth > 0 counts.
        self.fn_depth = 0
        #: Generator expressions passed straight to an order-free
        #: consumer (``sorted(x for x in s)``), marked by visit_Call.
        self.order_free: Set[ast.AST] = set()

    # -- scope management ----------------------------------------------

    def _visit_function(self, node: ast.AST) -> None:
        # Only the body is walked: defaults and decorators run once, at
        # definition time, in source order.
        scope = {arg.arg: "other" for arg in ast.walk(node.args)  # type: ignore[attr-defined]
                 if isinstance(arg, ast.arg)}
        body = node.body  # type: ignore[attr-defined]
        self.scopes.append(scope)
        self.fn_depth += 1
        for sub in body if isinstance(body, list) else [body]:
            self.visit(sub)
        self.fn_depth -= 1
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Class bodies get their own scope (attrs are not module state).
        self.scopes.append({})
        for item in node.body:
            self.visit(item)
        self.scopes.pop()

    def _local_kind(self, name: str) -> Optional[str]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _bind_local(self, target: ast.AST, kind: str) -> None:
        if not self.scopes:
            return
        if isinstance(target, ast.Name):
            self.scopes[-1][target.id] = kind
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_local(elt, "other")

    # -- assignments / mutations ---------------------------------------

    def _visit_assign(self, node: "ast.Assign | ast.AnnAssign | ast.Delete"
                      ) -> None:
        targets = ([node.target] if isinstance(node, ast.AnnAssign)
                   else node.targets)
        kind = ("other" if isinstance(node, ast.Delete)
                else self._expr_kind(node.value))
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_mutation(node.lineno, target)
            if not isinstance(node, ast.Delete):
                self._bind_local(target, kind)
        self.generic_visit(node)

    visit_Assign = visit_AnnAssign = visit_Delete = _visit_assign

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutation(node.lineno, node.target)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_iteration(node.iter)
        self._bind_local(node.target, "other")
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        # A set built from a set stays order-free, and so does a
        # generator fed straight to an order-free consumer.
        order_free = isinstance(node, ast.SetComp) or node in self.order_free
        for gen in node.generators:  # type: ignore[attr-defined]
            if not order_free:
                self._record_iteration(gen.iter)
            self._bind_local(gen.target, "other")
        self.generic_visit(node)

    visit_ListComp = visit_DictComp = visit_SetComp = visit_GeneratorExp = \
        _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        func = _dotted(node.func)
        if self.facts.aliases.get(func, func) in _ORDER_FREE_CONSUMERS:
            self.order_free.update(
                arg for arg in (node.func, *node.args)
                if isinstance(arg, ast.GeneratorExp))
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in _MUTATOR_METHODS:
                self._record_mutation(node.lineno, node.func.value)
            if method in ("generator", "stream") and node.args:
                self._record_label(node)
        self.generic_visit(node)

    # -- recording helpers ---------------------------------------------

    def _record_mutation(self, line: int, target: ast.AST) -> None:
        if self.fn_depth == 0:
            return  # import-time mutation: runs once, in source order
        # Strip subscripts: d["k"]["j"] mutates d.
        while isinstance(target, ast.Subscript):
            target = target.value
        dotted = _dotted(target)
        if dotted is None or \
                self._local_kind(dotted.split(".", 1)[0]) is not None:
            return
        self.facts.mutations.append((line, dotted))

    def _record_label(self, node: ast.Call) -> None:
        if any(kw.arg == "allow_reuse" and isinstance(kw.value, ast.Constant)
               and kw.value.value is True for kw in node.keywords):
            return  # re-derivation is intended
        label = node.args[0]
        if isinstance(label, ast.Constant) and isinstance(label.value, str):
            self.facts.labels.append(LabelSite(node.lineno, label.value, False))
        elif isinstance(label, ast.JoinedStr):
            template = _fstring_template(label)
            if template is not None:
                self.facts.labels.append(LabelSite(
                    node.lineno, template, "{}" in template))

    def _expr_kind(self, value: Optional[ast.AST]) -> str:
        """``"set"`` when *value* is statically set-shaped, else other."""
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            func = _dotted(value.func)
            if self.facts.aliases.get(func, func) in _SET_CALLS:
                return "set"
            if isinstance(value.func, ast.Attribute) and \
                    value.func.attr in _SET_PRODUCING_METHODS and \
                    self._iter_symbol_kind(value.func.value) == "set":
                return "set"
        if isinstance(value, ast.BinOp) and isinstance(
                value.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
            if "set" in (self._iter_symbol_kind(value.left),
                         self._iter_symbol_kind(value.right)):
                return "set"
        return "other"

    def _iter_symbol_kind(self, node: ast.AST) -> str:
        """Best-effort static kind of an expression (``set`` or other)."""
        if isinstance(node, ast.Name):
            return self._local_kind(node.id) or "other"
        return self._expr_kind(node)

    def _record_iteration(self, iter_expr: ast.AST) -> None:
        view = False
        expr = iter_expr
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in ("keys", "values", "items") \
                and not expr.args:
            view = True
            expr = expr.func.value
        local = (self._local_kind(expr.id) if isinstance(expr, ast.Name)
                 else None)
        if not view and self._expr_kind(expr) == "set":
            symbol = None  # inline set expression: unordered, full stop
        elif local is not None:
            if local != "set":
                return  # locals: flag set-typed ones, never escalate others
            symbol = None
        else:
            # Module-level names / imported symbols: record for the index
            # to resolve (a dotted path rooted outside any local scope).
            symbol = _dotted(expr)
            if symbol is None:
                return
            root = symbol.split(".", 1)[0]
            if self._local_kind(root) is not None or root == "self":
                return
        self.facts.iterations.append(IterationSite(
            expr.lineno, ast.unparse(iter_expr)[:60], symbol, view))


def extract_facts(ctx: ModuleContext) -> FileFacts:
    """Distil one parsed module into its :class:`FileFacts`."""
    facts = FileFacts(path=ctx.path, module=ctx.module,
                      aliases=dict(ctx.aliases), noqa=noqa_map(ctx.lines))
    # Relative imports resolve against the module's own dotted path, so
    # `from .observers import Observer` also lands in the alias map.
    for node in ctx.nodes:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            base = _resolve_relative(ctx, node)
            if base is None:
                continue
            for name in node.names:
                if name.name != "*":
                    facts.aliases.setdefault(
                        name.asname or name.name, f"{base}.{name.name}")

    typing_lines = _typing_only_lines(ctx.nodes)
    for line, imported in _imported_modules(ctx):
        facts.imports.append((line, imported, line in typing_lines))

    # Module-level bindings (direct children of the Module node only).
    assert isinstance(ctx.tree, ast.Module)
    for node in ctx.tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            facts.bindings.setdefault(node.name, "other")
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        kind = _binding_kind(node.value, facts.aliases)
        for target in targets:
            if isinstance(target, ast.Name):
                facts.bindings.setdefault(target.id, kind)

    _FactsVisitor(facts).visit(ctx.tree)
    return facts


# --------------------------------------------------------------------------
# the project index
# --------------------------------------------------------------------------


class ProjectIndex:
    """Whole-program view stitched together from per-file facts."""

    def __init__(self, facts: Iterable[FileFacts]) -> None:
        self.files: List[FileFacts] = sorted(facts, key=lambda f: f.path)
        #: dotted module name -> facts (last one wins on collisions).
        self.modules: Dict[str, FileFacts] = {
            f.module: f for f in self.files if f.module}

    # -- module graph ---------------------------------------------------

    def _internal_target(self, imported: str) -> Optional[str]:
        """Map an imported dotted path to an indexed module, if any."""
        parts = imported.split(".")
        while parts:
            candidate = ".".join(parts)
            if candidate in self.modules:
                return candidate
            parts.pop()
        return None

    def module_graph(self, include_typing: bool = False
                     ) -> Dict[str, List[str]]:
        """Adjacency of internal imports, deterministically sorted."""
        graph: Dict[str, List[str]] = {}
        for name, facts in sorted(self.modules.items()):
            edges: Set[str] = set()
            for _line, imported, typing_only in facts.imports:
                if typing_only and not include_typing:
                    continue
                target = self._internal_target(imported)
                if target is not None and target != name:
                    edges.add(target)
            graph[name] = sorted(edges)
        return graph

    def import_cycles(self) -> List[List[str]]:
        """Import cycles (strongly connected components of more than one
        module), typing-only imports excluded, each as a sorted list.

        The CI gate asserts the result is empty.
        """
        graph = self.module_graph()
        reach: Dict[str, Set[str]] = {}
        for start in graph:
            seen: Set[str] = set()
            todo = list(graph[start])
            while todo:
                node = todo.pop()
                if node not in seen:
                    seen.add(node)
                    todo.extend(graph.get(node, ()))
            reach[start] = seen
        # A module on a cycle reaches itself; its component is every
        # module it reaches that reaches it back.
        return [list(cycle) for cycle in sorted({
            tuple(sorted(other for other in reach[name]
                         if name in reach[other]))
            for name in graph if name in reach[name]})]

    # -- symbol resolution ----------------------------------------------

    def resolve(self, module: str, dotted: str,
                _depth: int = 0) -> Optional[Tuple[str, str]]:
        """Resolve *dotted* (as written in *module*) to its defining
        ``(module, binding)`` pair, following import aliases."""
        if _depth > 8 or module not in self.modules:
            return None
        facts = self.modules[module]
        head, _, rest = dotted.partition(".")
        if head in facts.bindings:
            return (module, head)
        alias = facts.aliases.get(head)
        if alias is None:
            return None
        full = f"{alias}.{rest}" if rest else alias
        target_module = self._internal_target(full)
        if target_module is None or full == target_module:
            return None
        remainder = full[len(target_module) + 1:]
        name = remainder.split(".", 1)[0]
        if target_module == module and name == head:
            return None
        return self.resolve(target_module, remainder, _depth + 1)
