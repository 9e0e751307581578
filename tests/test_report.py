"""Text reporting: tables, ASCII charts, figure containers."""

import pytest

from repro.report.ascii import (
    ascii_cdf,
    ascii_histogram,
    ascii_series,
    sparkline,
)
from repro.report.figures import FigureSeries
from repro.report.tables import TextTable, format_percent


def test_format_percent():
    assert format_percent(0.5) == "50.0%"
    assert format_percent(0.1234, digits=2) == "12.34%"


def test_table_render():
    table = TextTable(["region", "links"], title="Demo")
    table.add_row(["us-west1", 5293])
    table.add_row(["us-east1", 6217])
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "region" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert "us-west1" in lines[3]
    assert len(table) == 2


def test_table_validation():
    with pytest.raises(ValueError):
        TextTable([])
    table = TextTable(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_table_float_formatting():
    table = TextTable(["v"])
    for value in (1234.5678, 12.3456, 0.1234, float("nan")):
        table.add_row([value])
    text = table.render()
    assert "1235" in text
    assert "12.35" in text
    assert "0.1234" in text
    assert "nan" in text


def test_sparkline():
    line = sparkline([0, 1, 2, 3])
    assert len(line) == 4
    assert line[0] != line[-1]
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == sparkline([1, 1, 1])


def test_ascii_series():
    text = ascii_series([1, 5, 3, 9, 2], width=10, height=4)
    assert "min=1.0" in text
    assert "max=9.0" in text
    assert ascii_series([]) == "(empty series)"
    # Downsampling long series keeps the width bounded.
    long_text = ascii_series(list(range(500)), width=40, height=3)
    assert max(len(l) for l in long_text.splitlines()) <= 45


def test_ascii_histogram_and_cdf():
    values = [1.0] * 10 + [9.0] * 2
    hist = ascii_histogram(values, bins=4)
    assert "10" in hist
    assert ascii_histogram([]) == "(no data)"
    cdf = ascii_cdf([1, 2, 3, 4, 5])
    assert "P<=0.50" in cdf
    assert ascii_cdf([]) == "(no data)"


def test_figure_series():
    series = FigureSeries(label="s", y=[1, 2, 3], x=[0, 1, 2])
    assert series.n == 3
    summary = series.summary()
    assert summary["median"] == 2
    with pytest.raises(ValueError):
        FigureSeries(label="bad", y=[1, 2], x=[0])
    assert FigureSeries(label="e", y=[]).summary() == {"n": 0}
