"""Per-line suppression directives.

A source line opts out of linting with a trailing comment:

* ``# repro: noqa`` suppresses every rule on that line,
* ``# repro: noqa RPR001`` suppresses one code,
* ``# repro: noqa RPR001,RPR004`` (comma- or space-separated)
  suppresses several.

Directives are deliberately namespaced under ``repro:`` so they never
collide with flake8/ruff ``# noqa`` handling.  A file's directives are
one ``{line: codes}`` map, carried in its
:class:`~repro.lint.index.FileFacts` so per-file and cross-file
findings are filtered the same way.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Mapping, Optional, Sequence

from .findings import Finding

__all__ = ["ALL_CODES", "is_suppressed", "noqa_map", "parse_noqa"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b"          # the directive itself
    r"(?::?\s*(?P<codes>[A-Z]{3}\d{3}(?:[,\s]+[A-Z]{3}\d{3})*))?",
)

#: Sentinel meaning "every code is suppressed on this line".
ALL_CODES: FrozenSet[str] = frozenset({"*"})


def parse_noqa(line: str) -> Optional[FrozenSet[str]]:
    """Return the set of codes suppressed by *line*, or ``None``.

    A bare directive returns :data:`ALL_CODES`.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return ALL_CODES
    return frozenset(c for c in re.split(r"[,\s]+", codes) if c)


def noqa_map(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Every directive of one source file, by 1-based line number."""
    found = ((number, parse_noqa(text))
             for number, text in enumerate(lines, start=1) if "noqa" in text)
    return {number: codes for number, codes in found if codes is not None}


def is_suppressed(noqa: Mapping[int, FrozenSet[str]],
                  finding: Finding) -> bool:
    codes = noqa.get(finding.line, ())
    return "*" in codes or finding.code in codes
