"""Lint engine: discover files, parse, dispatch rules, filter findings.

The pipeline is two-phase.  Per file::

    read -> parse (RPR000 on SyntaxError) -> walk the tree once
         -> run single-file rules -> drop `# repro: noqa` suppressed
         -> extract FileFacts for the project index

then once per run::

    ProjectIndex(all facts) -> cross-file rules (RPR010, RPR011)
         -> drop suppressed

:func:`run` is the single entry point used by both the CLI and the CI
gate test; :func:`lint_text` lints an in-memory snippet and
:func:`lint_sources` a dict of snippets (a whole miniature project),
which keeps the rule test fixtures free of temp files.  A run reads
files and writes none.

When :mod:`repro.obs` is enabled the run reports itself: one
``lint.run`` span plus ``lint.files.scanned`` / ``lint.findings.*``
counters, so the analyzer shows up in obs snapshots like any other
subsystem.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import repro.obs as obs

from ..errors import ConfigError
from .findings import Finding
from .index import FileFacts, ProjectIndex, extract_facts
from .noqa import NoqaDirectives
from .rules import (SCOPE_FILE, SCOPE_PROJECT, Rule, _import_aliases,
                    all_rules, get_rule)

# Importing xrules registers RPR010 and RPR011 with the shared registry.
from . import xrules  # noqa: F401  (import-for-side-effect)

__all__ = ["LintResult", "ModuleContext", "iter_python_files",
           "lint_sources", "lint_text", "module_name_for", "run"]


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


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: The whole-program index (None when no project rule ran).
    index: Optional[ProjectIndex] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name of *path*, anchored at the ``repro`` package.

    ``/repo/src/repro/netsim/tcp.py`` -> ``repro.netsim.tcp``; files not
    under a ``repro`` directory fall back to their stem so rules that
    only need *a* name (fixtures, scratch files) still work.
    """
    parts = list(path.resolve().parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = list(parts[anchor:])
    else:
        dotted = [path.name]
    dotted[-1] = dotted[-1][:-3] if dotted[-1].endswith(".py") else dotted[-1]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) if dotted else None


def iter_python_files(paths: Iterable["Path | str"]) -> Iterator[Path]:
    """Yield every ``.py`` file under *paths*, deterministically sorted."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(q for q in p.rglob("*.py") if q.is_file())
        elif p.suffix == ".py" and p.is_file():
            yield p
        elif not p.exists():
            raise ConfigError(f"lint target {p} does not exist")
        else:
            raise ConfigError(f"lint target {p} is neither a .py file "
                              f"nor a directory")


def _split_rules(select: Optional[Sequence[str]]
                 ) -> Tuple[List[Rule], List[Rule]]:
    rules = [get_rule(code) for code in select] if select else all_rules()
    return ([r for r in rules if r.scope == SCOPE_FILE],
            [r for r in rules if r.scope == SCOPE_PROJECT])


def _lint_module(path: str, module: Optional[str], source: str,
                 is_package: bool, file_rules: Sequence[Rule]
                 ) -> Tuple[List[Finding], FileFacts]:
    """Single-file findings (noqa-filtered) plus extracted facts."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(path, exc.lineno or 1, "RPR000",
                          f"could not parse: {exc.msg}")
        return [finding], FileFacts(path=path, module=module)
    ctx = ModuleContext(path=path, module=module, tree=tree,
                        lines=source.splitlines(), is_package=is_package)
    findings: List[Finding] = []
    for rule in file_rules:
        findings.extend(rule.func(ctx))
    noqa = NoqaDirectives(list(ctx.lines))
    if len(noqa):
        findings = [f for f in findings
                    if not noqa.is_suppressed(f.line, f.code)]
    return findings, extract_facts(ctx, noqa_map=noqa.as_map())


def _project_findings(facts: Sequence[FileFacts],
                      project_rules: Sequence[Rule]
                      ) -> Tuple[List[Finding], Optional[ProjectIndex]]:
    """Run cross-file rules once, honoring per-file noqa directives."""
    if not project_rules:
        return [], None
    index = ProjectIndex(facts)
    noqa_by_path: Dict[str, Mapping[int, Sequence[str]]] = {
        f.path: f.noqa for f in facts}
    findings: List[Finding] = []
    for rule in project_rules:
        for finding in rule.func(index):
            suppressed = noqa_by_path.get(finding.path, {}).get(
                finding.line, ())
            if "*" in suppressed or finding.code in suppressed:
                continue
            findings.append(finding)
    return findings, index


def lint_text(source: str, path: str = "<snippet>",
              module: Optional[str] = "snippet",
              select: Optional[Sequence[str]] = None,
              is_package: bool = False) -> List[Finding]:
    """Lint an in-memory *source* snippet (used heavily by the tests).

    Cross-file rules run too, over a one-module project index, so
    single-file fixtures can exercise RPR010/RPR011 as well.
    """
    return lint_sources({path: source}, select=select,
                        modules={path: module},
                        packages={path} if is_package else ())


def lint_sources(sources: Mapping[str, str],
                 select: Optional[Sequence[str]] = None,
                 modules: Optional[Mapping[str, Optional[str]]] = None,
                 packages: Iterable[str] = ()) -> List[Finding]:
    """Lint a ``{path: source}`` mapping as one miniature project.

    Module names are taken from *modules* when given, else derived from
    the path (anchored at a ``repro`` component, mirroring
    :func:`module_name_for`), so cross-file fixtures like
    ``{"src/repro/core/a.py": ..., "src/repro/core/b.py": ...}``
    behave exactly like the real tree.
    """
    file_rules, project_rules = _split_rules(select)
    packages = set(packages)
    findings: List[Finding] = []
    all_facts: List[FileFacts] = []
    for path in sorted(sources):
        module = (modules or {}).get(path, module_name_for(Path(path)))
        is_package = path in packages or path.endswith("__init__.py")
        file_findings, facts = _lint_module(path, module, sources[path],
                                            is_package, file_rules)
        findings.extend(file_findings)
        all_facts.append(facts)
    project, _index = _project_findings(all_facts, project_rules)
    return sorted(findings + project)


def _display_path(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return str(PurePosixPath(resolved.relative_to(root.resolve())))
        except ValueError:
            pass
    return str(PurePosixPath(path))


def run(paths: Iterable["Path | str"],
        select: Optional[Sequence[str]] = None,
        root: "Path | str | None" = None) -> LintResult:
    """Lint *paths*; findings paths are relative to *root* (default: cwd)."""
    anchor = Path(root) if root is not None else Path.cwd()
    file_rules, project_rules = _split_rules(select)
    files = list(iter_python_files(paths))
    if not files:
        raise ConfigError(
            "no Python files found under: "
            + ", ".join(str(p) for p in paths)
            + " (nothing to lint)")

    result = LintResult(files_checked=len(files))
    with obs.span("lint.run", layer="lint", files=len(files)):
        all_facts: List[FileFacts] = []
        for file_path in files:
            file_findings, facts = _lint_module(
                _display_path(file_path, anchor), module_name_for(file_path),
                file_path.read_text(encoding="utf-8"),
                file_path.name == "__init__.py", file_rules)
            result.findings.extend(file_findings)
            all_facts.append(facts)
        project, result.index = _project_findings(all_facts, project_rules)
        result.findings.extend(project)
        result.findings.sort()

        obs.inc("lint.files.scanned", result.files_checked)
        for finding in result.findings:
            obs.inc(f"lint.findings.{finding.code}")
    return result
