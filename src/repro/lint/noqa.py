"""Per-line suppression directives.

A source line opts out of linting with a trailing comment:

* ``# repro: noqa`` suppresses every rule on that line,
* ``# repro: noqa RPR001`` suppresses one code,
* ``# repro: noqa RPR001,RPR004`` (comma- or space-separated)
  suppresses several.

Directives are deliberately namespaced under ``repro:`` so they never
collide with flake8/ruff ``# noqa`` handling.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional

__all__ = ["NoqaDirectives", "parse_noqa"]

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


class NoqaDirectives:
    """All suppression directives of one source file, by line number."""

    def __init__(self, source_lines: List[str]) -> None:
        self._by_line: Dict[int, FrozenSet[str]] = {}
        for idx, text in enumerate(source_lines, start=1):
            codes = parse_noqa(text)
            if codes is not None:
                self._by_line[idx] = codes

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self._by_line.get(line)
        if codes is None:
            return False
        return codes is ALL_CODES or code in codes

    def as_map(self) -> Dict[int, List[str]]:
        """Plain ``{line: [codes]}`` view (``"*"`` = every code).

        This is the shape carried in
        :class:`~repro.lint.index.FileFacts`, so cross-file findings
        honor the suppressions of the file they land in.
        """
        return {line: sorted(codes)
                for line, codes in self._by_line.items()}

    def __len__(self) -> int:
        return len(self._by_line)
