"""Figure data containers.

Each experiment produces one or more :class:`FigureSeries` - the exact
numeric series a figure panel plots - so benchmark output, tests, and
any future real plotting all consume the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ValidationError

__all__ = ["FigureSeries"]


@dataclass
class FigureSeries:
    """One plotted series: label plus x/y arrays (y-only is allowed)."""

    label: str
    y: Sequence[float]
    x: Optional[Sequence[float]] = None
    kind: str = "line"           # line | cdf | scatter | bar
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.x is not None and len(self.x) != len(self.y):
            raise ValidationError(
                f"series {self.label!r}: x/y length mismatch")

    @property
    def n(self) -> int:
        return len(self.y)

    def summary(self) -> Dict[str, float]:
        arr = np.asarray(list(self.y), dtype=float)
        if arr.size == 0:
            return {"n": 0}
        return {
            "n": int(arr.size),
            "min": float(arr.min()),
            "median": float(np.median(arr)),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }

