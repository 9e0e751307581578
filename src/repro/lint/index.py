"""Whole-program project index for cross-file lint rules.

The per-file rules in :mod:`repro.lint.rules` see one module at a time,
which is blind to two hazards for bit-for-bit determinism: iterating a
set (or a runtime-mutated dict) defined in another file, and duplicate
:class:`~repro.rng.SeedTree` labels in different files.  This module
closes that gap in two stages:

1. :func:`extract_facts` distils one parsed module into a
   :class:`FileFacts` record - imports, module-level bindings, mutation
   sites, set-iteration sites and seed-label call sites.
2. :class:`ProjectIndex` stitches the facts of every file into the
   whole-program view: the internal module graph (with cycle detection;
   ``if TYPE_CHECKING:`` imports are excluded) and a symbol table
   resolving imported names back to their defining module.

Cross-file rules (``RPR010`` and ``RPR011`` in :mod:`repro.lint.xrules`)
consume only the index, never raw ASTs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from .rules import _dotted_name as _dotted
from .rules import _imported_modules, _resolve_relative

if TYPE_CHECKING:  # pragma: no cover - engine imports index at runtime
    from .engine import ModuleContext

__all__ = [
    "FileFacts",
    "IterationSite",
    "LabelSite",
    "ProjectIndex",
    "SymbolBinding",
    "extract_facts",
]

#: Constructor calls / literals whose result is an (unordered) set.
_SET_CALLS = frozenset({"set", "frozenset"})

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
# fact records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolBinding:
    """One module-level binding."""

    name: str
    line: int
    #: ``"set"`` / ``"dict"`` / ``"list"`` / ``"bytearray"`` for
    #: mutable containers, ``"class"`` / ``"function"`` /
    #: ``"constant"`` / ``"other"`` otherwise.
    kind: str

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
    """One ``SeedTree.generator/stream/seed`` call with a static label.

    ``template`` is the literal label, or the f-string with every
    interpolation collapsed to ``{}`` (``f"story-{name}"`` ->
    ``story-{}``); ``dynamic`` marks templates (vs exact literals).
    """

    line: int
    method: str
    template: str
    dynamic: bool
    allow_reuse: bool


@dataclass
class FileFacts:
    """Everything the cross-file rules need to know about one module."""

    path: str
    module: Optional[str]
    #: (line, dotted module, typing_only) - every import edge.
    imports: List[Tuple[int, str, bool]] = field(default_factory=list)
    #: Local name -> canonical dotted target (import alias map).
    aliases: Dict[str, str] = field(default_factory=dict)
    bindings: List[SymbolBinding] = field(default_factory=list)
    #: (line, dotted target) - in-place mutation sites.
    mutations: List[Tuple[int, str]] = field(default_factory=list)
    iterations: List[IterationSite] = field(default_factory=list)
    labels: List[LabelSite] = field(default_factory=list)
    #: line -> suppressed codes ("*" means all) for cross-file findings.
    noqa: Dict[int, List[str]] = field(default_factory=dict)


# --------------------------------------------------------------------------
# extraction helpers
# --------------------------------------------------------------------------


def _binding_kind(value: Optional[ast.AST],
                  aliases: Mapping[str, str]) -> str:
    """Classify the value expression of a module-level assignment."""
    if value is None:
        return "other"
    if isinstance(value, ast.List):
        return "list"
    if isinstance(value, ast.Dict) or isinstance(value, ast.DictComp):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.ListComp):
        return "list"
    if isinstance(value, ast.Call):
        target = _dotted(value.func)
        if target is None:
            return "other"
        target = aliases.get(target, target)
        if target in _SET_CALLS:
            return "set"
        if target in ("dict", "collections.defaultdict", "defaultdict",
                      "collections.OrderedDict", "OrderedDict",
                      "collections.Counter", "Counter"):
            return "dict"
        if target in ("list", "collections.deque", "deque"):
            return "list"
        if target == "bytearray":
            return "bytearray"
        return "other"
    if isinstance(value, ast.Constant):
        return "constant"
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

    def _enter_function(self, node: ast.AST) -> None:
        scope: Dict[str, str] = {}
        for arg in ast.walk(node.args):  # type: ignore[attr-defined]
            if isinstance(arg, ast.arg):
                scope[arg.arg] = "other"
        self.scopes.append(scope)
        self.fn_depth += 1
        for sub in node.body:  # type: ignore[attr-defined]
            self.visit(sub)
        self.fn_depth -= 1
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        scope = {arg.arg: "other" for arg in ast.walk(node.args)
                 if isinstance(arg, ast.arg)}
        self.scopes.append(scope)
        self.fn_depth += 1
        self.visit(node.body)
        self.fn_depth -= 1
        self.scopes.pop()

    def _is_local(self, name: str) -> bool:
        return any(name in scope for scope in self.scopes)

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

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._expr_kind(node.value)
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_mutation(node.lineno, target)
            self._bind_local(target, kind)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self._record_mutation(node.lineno, node.target)
        self._bind_local(node.target, self._expr_kind(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutation(node.lineno, node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._record_mutation(node.lineno, target)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_iteration(node.iter, in_set_context=False)
        self._bind_local(node.target, "other")
        self.generic_visit(node)

    def visit_comprehension_iter(self, comp: ast.AST,
                                 order_free: bool) -> None:
        for gen in comp.generators:  # type: ignore[attr-defined]
            self._record_iteration(gen.iter, in_set_context=order_free)
            self._bind_local(gen.target, "other")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iter(node, order_free=False)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iter(node, order_free=False)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set built from a set stays order-free: no ordering leaks.
        self.visit_comprehension_iter(node, order_free=True)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iter(node,
                                      order_free=node in self.order_free)
        self.generic_visit(node)

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
            if method in ("generator", "stream", "seed") and node.args:
                self._record_label(node, method)
        self.generic_visit(node)

    # -- recording helpers ---------------------------------------------

    def _record_mutation(self, line: int, target: ast.AST) -> None:
        if self.fn_depth == 0:
            return  # import-time mutation: runs once, in source order
        # Strip subscripts: d["k"]["j"] mutates d.
        while isinstance(target, ast.Subscript):
            target = target.value
        dotted = _dotted(target)
        if dotted is None:
            return
        root = dotted.split(".", 1)[0]
        if self._is_local(root):
            return
        self.facts.mutations.append((line, dotted))

    def _record_label(self, node: ast.Call, method: str) -> None:
        label = node.args[0]
        allow_reuse = any(kw.arg == "allow_reuse" and
                          isinstance(kw.value, ast.Constant) and
                          kw.value.value is True
                          for kw in node.keywords)
        if isinstance(label, ast.Constant) and isinstance(label.value, str):
            self.facts.labels.append(LabelSite(
                node.lineno, method, label.value, False, allow_reuse))
        elif isinstance(label, ast.JoinedStr):
            template = _fstring_template(label)
            if template is not None:
                self.facts.labels.append(LabelSite(
                    node.lineno, method, template, "{}" in template,
                    allow_reuse))

    def _expr_kind(self, value: Optional[ast.AST]) -> str:
        """``"set"`` when *value* is statically set-shaped, else other."""
        if value is None:
            return "other"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            func = _dotted(value.func)
            if func is not None:
                func = self.facts.aliases.get(func, func)
                if func in _SET_CALLS:
                    return "set"
            if isinstance(value.func, ast.Attribute) and \
                    value.func.attr in _SET_PRODUCING_METHODS:
                receiver = self._iter_symbol_kind(value.func.value)
                if receiver == "set":
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
            local = self._local_kind(node.id)
            if local is not None:
                return local
            return "other"
        return self._expr_kind(node)

    def _record_iteration(self, iter_expr: ast.AST,
                          in_set_context: bool) -> None:
        if in_set_context:
            return
        view = False
        expr = iter_expr
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
                and expr.func.attr in ("keys", "values", "items") \
                and not expr.args:
            view = True
            expr = expr.func.value

        # Inline set expressions are unordered, full stop.
        if not view and self._expr_kind(expr) == "set":
            self.facts.iterations.append(IterationSite(
                expr.lineno, ast.unparse(iter_expr)[:60], None, False))
            return

        # Locals: flag set-typed locals; never escalate others.
        if isinstance(expr, ast.Name):
            local = self._local_kind(expr.id)
            if local == "set":
                self.facts.iterations.append(IterationSite(
                    expr.lineno, ast.unparse(iter_expr)[:60], None, view))
                return
            if local is not None:
                return
        # Module-level names / imported symbols: record for the index
        # to resolve (a dotted path rooted outside any local scope).
        dotted = _dotted(expr)
        if dotted is None:
            return
        root = dotted.split(".", 1)[0]
        if self._is_local(root) or root == "self":
            return
        self.facts.iterations.append(IterationSite(
            expr.lineno, ast.unparse(iter_expr)[:60], dotted, view))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Class bodies get their own scope (attrs are not module state).
        self.scopes.append({})
        for item in node.body:
            self.visit(item)
        self.scopes.pop()


def extract_facts(ctx: "ModuleContext",
                  noqa_map: Optional[Mapping[int, Sequence[str]]] = None
                  ) -> FileFacts:
    """Distil one parsed module into its :class:`FileFacts`."""
    facts = FileFacts(path=ctx.path, module=ctx.module)
    facts.aliases = dict(ctx.aliases)
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
    if noqa_map:
        facts.noqa = {int(line): list(codes)
                      for line, codes in noqa_map.items()}

    typing_lines = _typing_only_lines(ctx.nodes)
    for line, imported in _imported_modules(ctx):
        facts.imports.append((line, imported, line in typing_lines))

    # Module-level bindings (direct children of the Module node only).
    assert isinstance(ctx.tree, ast.Module)
    for node in ctx.tree.body:
        targets: List[Tuple[ast.AST, Optional[ast.AST]]] = []
        if isinstance(node, ast.Assign):
            targets = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            targets = [(node.target, node.value)]
        elif isinstance(node, ast.ClassDef):
            facts.bindings.append(SymbolBinding(
                node.name, node.lineno, "class"))
            continue
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.bindings.append(SymbolBinding(
                node.name, node.lineno, "function"))
            continue
        for target, value in targets:
            if not isinstance(target, ast.Name):
                continue
            facts.bindings.append(SymbolBinding(
                target.id, node.lineno, _binding_kind(value, facts.aliases)))

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
        """Import cycles (Tarjan SCCs of size > 1), typing-only excluded.

        Returns each cycle as a sorted module list; the CI gate asserts
        the result is empty.
        """
        graph = self.module_graph()
        index_of: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        cycles: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: (node, edge iterator index) frames.
            work = [(node, 0)]
            while work:
                current, edge_idx = work.pop()
                if edge_idx == 0:
                    index_of[current] = low[current] = counter[0]
                    counter[0] += 1
                    stack.append(current)
                    on_stack.add(current)
                recurse = False
                edges = graph.get(current, [])
                for i in range(edge_idx, len(edges)):
                    nxt = edges[i]
                    if nxt not in index_of:
                        work.append((current, i + 1))
                        work.append((nxt, 0))
                        recurse = True
                        break
                    if nxt in on_stack:
                        low[current] = min(low[current], index_of[nxt])
                if recurse:
                    continue
                if low[current] == index_of[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        cycles.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])

        for name in sorted(graph):
            if name not in index_of:
                strongconnect(name)
        return sorted(cycles)

    # -- symbol resolution ----------------------------------------------

    def resolve(self, module: str, dotted: str,
                _depth: int = 0) -> Optional[Tuple[str, str]]:
        """Resolve *dotted* (as written in *module*) to its defining
        ``(module, binding)`` pair, following import aliases."""
        if _depth > 8 or module not in self.modules:
            return None
        facts = self.modules[module]
        head, _, rest = dotted.partition(".")
        for binding in facts.bindings:
            if binding.name == head:
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

    def binding(self, module: str, name: str) -> Optional[SymbolBinding]:
        facts = self.modules.get(module)
        if facts is None:
            return None
        for candidate in facts.bindings:
            if candidate.name == name:
                return candidate
        return None
