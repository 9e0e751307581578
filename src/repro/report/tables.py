"""Fixed-width text tables."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence
from ..errors import ValidationError

__all__ = ["TextTable", "format_percent"]


def format_percent(fraction: float, digits: int = 1) -> str:
    """Render a 0-1 fraction as a percentage string."""
    return f"{fraction * 100:.{digits}f}%"


class TextTable:
    """A small monospace table renderer.

    >>> t = TextTable(["region", "links"])
    >>> t.add_row(["us-west1", 5293])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str],
                 title: Optional[str] = None) -> None:
        if not headers:
            raise ValidationError("table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self._rows: List[List[str]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        if len(values) != len(self.headers):
            raise ValidationError(
                f"expected {len(self.headers)} cells, got {len(values)}")
        self._rows.append([_fmt(v) for v in values])

    def __len__(self) -> int:
        return len(self._rows)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

        out: List[str] = []
        if self.title:
            out.append(self.title)
        out.append(line(self.headers))
        out.append(line(["-" * w for w in widths]))
        for row in self._rows:
            out.append(line(row))
        return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
