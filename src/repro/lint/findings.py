"""The :class:`Finding` record emitted by lint rules."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Ordering is (path, line, code, message) so sorted output groups by
    file and reads top to bottom.
    """

    path: str
    line: int
    code: str
    message: str

    def format(self) -> str:
        """Render in the conventional ``path:line: CODE message`` shape."""
        return f"{self.path}:{self.line}: {self.code} {self.message}"
