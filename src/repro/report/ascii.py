"""ASCII renderings of series, histograms, and CDFs."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "sparkline",
    "ascii_series",
    "ascii_histogram",
    "ascii_cdf",
]

_BLOCKS = " .:-=+*#%@"
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """One-line unicode sparkline of a series."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return ""
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _SPARK[0] * arr.size
    scaled = (arr - lo) / (hi - lo)
    idx = np.minimum((scaled * len(_SPARK)).astype(int), len(_SPARK) - 1)
    return "".join(_SPARK[i] for i in idx)


def ascii_series(values: Sequence[float], width: int = 72,
                 height: int = 10) -> str:
    """A multi-line plot of a series (column-downsampled)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return "(empty series)"
    if arr.size > width:
        # Downsample by averaging bins.
        edges = np.linspace(0, arr.size, width + 1).astype(int)
        arr = np.array([arr[a:b].mean() if b > a else arr[min(a, arr.size - 1)]
                        for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo if hi > lo else 1.0
    rows: List[str] = []
    for level in range(height, 0, -1):
        threshold = lo + span * (level - 0.5) / height
        row = "".join("#" if v >= threshold else " " for v in arr)
        rows.append(row)
    rows.append("-" * len(arr))
    rows.append(f"min={lo:.1f}  max={hi:.1f}  n={len(values)}")
    return "\n".join(rows)


def ascii_histogram(values: Sequence[float], bins: int = 12,
                    width: int = 40,
                    value_format: str = "{:.0f}") -> str:
    """A horizontal-bar histogram."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return "(no data)"
    counts, edges = np.histogram(arr, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        label = f"[{value_format.format(lo)}, {value_format.format(hi)})"
        lines.append(f"{label:>22s} {bar} {count}")
    return "\n".join(lines)


def ascii_cdf(values: Sequence[float], points: int = 15,
              value_format: str = "{:+.2f}") -> str:
    """A textual CDF: probability vs value at evenly spaced quantiles."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        return "(no data)"
    lines = []
    for q in np.linspace(0.0, 1.0, points):
        idx = min(arr.size - 1, int(q * (arr.size - 1)))
        bar = "#" * int(round(q * 40))
        lines.append(f"P<={q:4.2f} {value_format.format(arr[idx]):>9s} {bar}")
    return "\n".join(lines)
