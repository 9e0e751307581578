"""Lint engine: discover files, parse, dispatch rules, filter findings.

The pipeline is two-phase.  Per file::

    read -> parse (RPR000 on SyntaxError) -> walk the tree once
         -> extract FileFacts (incl. the `# repro: noqa` map)
         -> run single-file checks -> drop suppressed

then once per run::

    ProjectIndex(all facts) -> cross-file checks (RPR010, RPR011)
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
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

import repro.obs as obs

from ..errors import ConfigError
from .findings import Finding
from .index import FileFacts, ModuleContext, ProjectIndex, extract_facts
from .noqa import is_suppressed
from .rules import Rule, all_rules, get_rule

__all__ = ["LintResult", "ModuleContext", "iter_python_files",
           "lint_sources", "lint_text", "module_name_for", "run"]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: The whole-program index the cross-file rules read.
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


#: One module to lint: (display path, dotted module, is_package, source).
_Entry = Tuple[str, Optional[str], bool, str]


def _rules(select: Optional[Sequence[str]]) -> List[Rule]:
    return [get_rule(code) for code in select] if select else all_rules()


def _lint(entries: Iterable[_Entry], rules: Sequence[Rule]
          ) -> Tuple[List[Finding], ProjectIndex]:
    """Lint every entry, then the project they form; findings sorted.

    Each rule's checks run once (a check shared by several rules runs
    once for all of them), and only findings of one of *rules*' codes -
    or RPR000, which is never filtered - are kept.
    """
    codes = {rule.code for rule in rules} | {"RPR000"}
    file_checks = list(dict.fromkeys(
        check for rule in rules if not rule.cross_file
        for check in rule.checks))
    project_checks = list(dict.fromkeys(
        check for rule in rules if rule.cross_file for check in rule.checks))

    findings: List[Finding] = []
    all_facts: List[FileFacts] = []
    for path, module, is_package, source in entries:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(Finding(path, exc.lineno or 1, "RPR000",
                                    f"could not parse: {exc.msg}"))
            all_facts.append(FileFacts(path=path, module=module))
            continue
        ctx = ModuleContext(path=path, module=module, tree=tree,
                            lines=source.splitlines(), is_package=is_package)
        facts = extract_facts(ctx)
        all_facts.append(facts)
        findings.extend(
            finding for check in file_checks for finding in check(ctx)
            if finding.code in codes and not is_suppressed(facts.noqa, finding))

    index = ProjectIndex(all_facts)
    noqa_by_path = {facts.path: facts.noqa for facts in all_facts}
    findings.extend(
        finding for check in project_checks for finding in check(index)
        if finding.code in codes
        and not is_suppressed(noqa_by_path.get(finding.path, {}), finding))
    return sorted(findings), index


def lint_text(source: str, path: str = "<snippet>",
              module: Optional[str] = "snippet",
              select: Optional[Sequence[str]] = None,
              is_package: bool = False) -> List[Finding]:
    """Lint an in-memory *source* snippet (used heavily by the tests).

    Cross-file rules run too, over a one-module project index, so
    single-file fixtures can exercise RPR010/RPR011 as well.
    """
    is_package = is_package or path.endswith("__init__.py")
    return _lint([(path, module, is_package, source)], _rules(select))[0]


def lint_sources(sources: Mapping[str, str],
                 select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint a ``{path: source}`` mapping as one miniature project.

    Module names are derived from the path by :func:`module_name_for`,
    so cross-file fixtures like
    ``{"src/repro/core/a.py": ..., "src/repro/core/b.py": ...}``
    behave exactly like the real tree.
    """
    rules = _rules(select)
    return _lint([(path, module_name_for(Path(path)),
                   path.endswith("__init__.py"), sources[path])
                  for path in sorted(sources)], rules)[0]


def _display_path(path: Path, root: Path) -> str:
    try:
        return str(PurePosixPath(path.resolve().relative_to(root.resolve())))
    except ValueError:
        return str(PurePosixPath(path))


def run(paths: Iterable["Path | str"],
        select: Optional[Sequence[str]] = None,
        root: "Path | str | None" = None) -> LintResult:
    """Lint *paths*; findings paths are relative to *root* (default: cwd)."""
    anchor = Path(root) if root is not None else Path.cwd()
    rules = _rules(select)
    files = list(iter_python_files(paths))
    if not files:
        raise ConfigError(
            "no Python files found under: "
            + ", ".join(str(p) for p in paths)
            + " (nothing to lint)")

    result = LintResult(files_checked=len(files))
    with obs.span("lint.run"):
        result.findings, result.index = _lint(
            ((_display_path(path, anchor), module_name_for(path),
              path.name == "__init__.py", path.read_text(encoding="utf-8"))
             for path in files), rules)
        obs.inc("lint.files.scanned", result.files_checked)
        for finding in result.findings:
            obs.inc(f"lint.findings.{finding.code}")
    return result
