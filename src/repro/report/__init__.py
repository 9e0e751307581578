"""Plain-text reporting: tables, ASCII charts, figure data builders.

The paper visualised with Grafana; benchmarks here print the same
rows/series as text so the harness is self-contained.
"""

from .tables import TextTable, format_percent
from .ascii import (
    ascii_cdf,
    ascii_histogram,
    ascii_series,
    sparkline,
)
from .figures import FigureSeries
from .crosscloud import render_matrix, render_provider_choice

__all__ = [
    "TextTable", "format_percent",
    "ascii_cdf", "ascii_histogram", "ascii_series",
    "sparkline",
    "FigureSeries",
    "render_matrix", "render_provider_choice",
]
