"""A small tag-indexed time-series store (the InfluxDB substitute).

Rows are appended as ``(ts, tags, fields)``; storage is columnar per
distinct tag tuple, so group-by-tags queries (the only kind the
analyses need) are O(1) lookups returning numpy arrays.  Tag values are
strings, field values floats, timestamps simulated epoch seconds.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TSDBError

__all__ = ["Table", "TimeSeriesDB"]

#: One row for :meth:`Table.extend`: ``(ts, tags, fields)``.
Row = Tuple[float, Sequence[str], Sequence[float]]


class _SeriesBuffer:
    """Append-only columnar buffer for one tag combination.

    Rows are kept in arrival order (what :meth:`Table.dump` writes).
    The timestamp-sorted view :meth:`sorted_view` is maintained
    incrementally: rows appended since the last view are stably sorted
    among themselves and then appended to the cached view, or merged
    into its tail when they start before its last timestamp.  Rows
    already in the view are never re-sorted: a read after k new rows
    sorts those k, and appends them in amortized O(k) when they start
    at or after the view's last timestamp (the hourly case).  The
    result is always exactly ``np.argsort(ts, kind="stable")`` over
    arrival order.

    Views are read-only slices of over-allocated column buffers.  A
    view handed out never changes: plain appends write past its end,
    and a tail merge (which reorders rows an earlier view covers)
    writes a new buffer.
    """

    __slots__ = ("ts", "fields", "_sorted", "_columns")

    def __init__(self, n_fields: int) -> None:
        self.ts = array("d")
        self.fields = [array("d") for _ in range(n_fields)]
        #: The latest view handed out (``[ts, field0, ...]``).
        self._sorted: Optional[List[np.ndarray]] = None
        #: Backing buffers of that view; rows past its length are free
        #: capacity no view covers.
        self._columns: List[np.ndarray] = []

    def append(self, ts: float, values: Sequence[float]) -> None:
        self.ts.append(ts)
        for column, value in zip(self.fields, values):
            column.append(value)

    def extend(self, ts_values: Sequence[float],
               field_columns: Sequence[Sequence[float]]) -> None:
        """Append many rows at once (columnar input)."""
        self.ts.extend(ts_values)
        for column, values in zip(self.fields, field_columns):
            column.extend(values)

    def sorted_view(self) -> List[np.ndarray]:
        """``[ts, field0, field1, ...]`` sorted by timestamp (cached)."""
        done = 0 if self._sorted is None else len(self._sorted[0])
        total = len(self.ts)
        if self._sorted is not None and done == total:
            return self._sorted
        new = [np.asarray(self.ts[done:], dtype=float)]
        new.extend(np.asarray(column[done:], dtype=float)
                   for column in self.fields)
        order = np.argsort(new[0], kind="stable")
        new = [arr[order] for arr in new]
        if done == 0:
            self._columns = new
        else:
            old = [column[:done] for column in self._columns]
            # Stable order is (ts, arrival): rows already in the view
            # arrived first, so every new row lands after each old row
            # with an equal timestamp.
            start = int(np.searchsorted(old[0], new[0][0], side="right"))
            if start == done:
                self._append_sorted(done, new)
            else:
                self._merge_tail(done, start, old, new)
        view = [column[:total] for column in self._columns]
        for arr in view:
            arr.setflags(write=False)
        self._sorted = view
        return view

    def _append_sorted(self, done: int,
                       new: List[np.ndarray]) -> None:
        """Write sorted rows past the view's end, growing if needed."""
        total = done + len(new[0])
        if total > len(self._columns[0]):
            grown = []
            for column in self._columns:
                buf = np.empty(max(total, 2 * len(column)), dtype=float)
                buf[:done] = column[:done]
                grown.append(buf)
            self._columns = grown
        for column, values in zip(self._columns, new):
            column[done:total] = values

    def _merge_tail(self, done: int, start: int, old: List[np.ndarray],
                    new: List[np.ndarray]) -> None:
        """Merge sorted rows into the view's tail, in a new buffer."""
        n_new = len(new[0])
        total = done + n_new
        # Each new row goes after every old row with ts <= its own,
        # shifted by the new rows placed before it.
        at = (np.searchsorted(old[0][start:], new[0], side="right")
              + np.arange(n_new))
        old_at = np.ones(total - start, dtype=bool)
        old_at[at] = False
        merged = []
        for column, values in zip(old, new):
            buf = np.empty(max(total, 2 * done), dtype=float)
            buf[:start] = column[:start]
            tail = buf[start:total]
            tail[at] = values
            tail[old_at] = column[start:]
            merged.append(buf)
        self._columns = merged

    def __len__(self) -> int:
        return len(self.ts)


class Table:
    """One measurement table with fixed tag and field schemas."""

    def __init__(self, name: str, tag_names: Sequence[str],
                 field_names: Sequence[str]) -> None:
        if not field_names:
            raise TSDBError(f"table {name!r} needs at least one field")
        if len(set(tag_names)) != len(tag_names):
            raise TSDBError(f"table {name!r} has duplicate tag names")
        if len(set(field_names)) != len(field_names):
            raise TSDBError(f"table {name!r} has duplicate field names")
        self.name = name
        self.tag_names = tuple(tag_names)
        self.field_names = tuple(field_names)
        self._field_index = {n: i for i, n in enumerate(field_names)}
        self._series: Dict[Tuple[str, ...], _SeriesBuffer] = {}

    # ------------------------------------------------------------------
    # writes

    def append(self, ts: float, tags: Sequence[str],
               fields: Sequence[float]) -> None:
        """Append one row."""
        if len(tags) != len(self.tag_names):
            raise TSDBError(
                f"expected {len(self.tag_names)} tags, got {len(tags)}")
        if len(fields) != len(self.field_names):
            raise TSDBError(
                f"expected {len(self.field_names)} fields, got {len(fields)}")
        key = tuple(tags)
        buf = self._series.get(key)
        if buf is None:
            buf = _SeriesBuffer(len(self.field_names))
            self._series[key] = buf
        buf.append(ts, fields)

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many ``(ts, tags, fields)`` rows, each as :meth:`append`."""
        for ts, tags, fields in rows:
            self.append(ts, tags, fields)

    def extend_series(self, tags: Tuple[str, ...], ts: Sequence[float],
                      fields: Sequence[Sequence[float]]) -> None:
        """Append rows given as columns to the one series *tags*: one
        array extend per column."""
        if len(tags) != len(self.tag_names):
            raise TSDBError(
                f"expected {len(self.tag_names)} tags, got {len(tags)}")
        if len(fields) != len(self.field_names):
            raise TSDBError(
                f"expected {len(self.field_names)} field columns, "
                f"got {len(fields)}")
        if any(len(column) != len(ts) for column in fields):
            raise TSDBError(f"table {self.name!r}: ragged columns")
        buf = self._series.get(tags)
        if buf is None:
            buf = self._series[tags] = _SeriesBuffer(len(self.field_names))
        buf.extend(ts, fields)

    def extend_columns(self, ts: Sequence[float],
                       tags: Sequence[Tuple[str, ...]],
                       fields: Sequence[Sequence[float]]) -> None:
        """Append rows given as columns: row *i* is ``ts[i]`` in series
        ``tags[i]``, with ``fields[k][i]`` for each field *k*.

        No row tuples are built and no rows are grouped: each row goes
        straight into its series' buffer.  A tag tuple's arity is
        checked when its series is created.
        """
        if len(fields) != len(self.field_names):
            raise TSDBError(
                f"expected {len(self.field_names)} field columns, "
                f"got {len(fields)}")
        n_rows = len(ts)
        if len(tags) != n_rows or any(len(column) != n_rows
                                      for column in fields):
            raise TSDBError(f"table {self.name!r}: ragged columns")
        series = self._series
        for key, row_ts, values in zip(tags, ts, zip(*fields)):
            buf = series.get(key)
            if buf is None:
                if len(key) != len(self.tag_names):
                    raise TSDBError(f"expected {len(self.tag_names)} tags, "
                                    f"got {len(key)}")
                buf = series[key] = _SeriesBuffer(len(self.field_names))
            buf.append(row_ts, values)

    # ------------------------------------------------------------------
    # reads

    def tag_combinations(self) -> List[Tuple[str, ...]]:
        """All distinct tag tuples, sorted."""
        return sorted(self._series)

    def distinct(self, tag_name: str) -> List[str]:
        """Distinct values of one tag across all series."""
        idx = self._tag_index(tag_name)
        return sorted({key[idx] for key in self._series})

    def _tag_index(self, tag_name: str) -> int:
        try:
            return self.tag_names.index(tag_name)
        except ValueError:
            raise TSDBError(
                f"table {self.name!r} has no tag {tag_name!r}") from None

    def series(self, tags: Sequence[str]) -> Dict[str, np.ndarray]:
        """The full series for one exact tag tuple.

        Returns a dict with key ``"ts"`` plus one key per field, sorted
        by timestamp (ties in arrival order).  The arrays are read-only
        views that the series keeps up to date incrementally: a read
        after an append returns new arrays and sorts only the rows
        appended since the last read, while views handed out earlier
        keep their contents.  Copy before mutating.
        """
        key = tuple(tags)
        buf = self._series.get(key)
        if buf is None:
            raise TSDBError(
                f"no series for tags {key!r} in table {self.name!r}")
        arrays = buf.sorted_view()
        out: Dict[str, np.ndarray] = {"ts": arrays[0]}
        for name, column in zip(self.field_names, arrays[1:]):
            out[name] = column
        return out

    def select(self, **tag_filters: str
               ) -> Iterator[Tuple[Tuple[str, ...], Dict[str, np.ndarray]]]:
        """Iterate (tag tuple, series) for series matching the filters.

        Filters are exact tag-value matches, e.g.
        ``table.select(region="us-west1", tier="premium")``.
        """
        indices = {name: self._tag_index(name) for name in tag_filters}
        for key in self.tag_combinations():
            if all(key[indices[name]] == value
                   for name, value in tag_filters.items()):
                yield key, self.series(key)

    def count(self, **tag_filters: str) -> int:
        """Number of rows matching the filters."""
        total = 0
        indices = {name: self._tag_index(name) for name in tag_filters}
        for key, buf in self._series.items():
            if all(key[indices[name]] == value
                   for name, value in tag_filters.items()):
                total += len(buf)
        return total

    def __len__(self) -> int:
        return sum(len(buf) for buf in self._series.values())

    # ------------------------------------------------------------------
    # persistence

    def dump(self) -> Dict[str, object]:
        """JSON-serializable snapshot of schema and every series.

        Rows are emitted in arrival order per series (the order that
        determines stable-sort tie-breaking), so a dump/restore round
        trip reproduces :meth:`series` views bit for bit.
        """
        return {
            "name": self.name,
            "tag_names": list(self.tag_names),
            "field_names": list(self.field_names),
            "series": [
                {"tags": list(key),
                 "ts": list(buf.ts),
                 "fields": [list(column) for column in buf.fields]}
                for key, buf in sorted(self._series.items())],
        }

    @classmethod
    def from_dump(cls, dump: Dict[str, object]) -> "Table":
        """Rebuild a table from :meth:`dump` output."""
        try:
            table = cls(dump["name"], dump["tag_names"],
                        dump["field_names"])
            entries = dump["series"]
        except (KeyError, TypeError):
            raise TSDBError("malformed table dump") from None
        for entry in entries:
            key = tuple(entry["tags"])
            if len(key) != len(table.tag_names):
                raise TSDBError(
                    f"table {table.name!r}: dumped series {key!r} has "
                    f"{len(key)} tags, schema has {len(table.tag_names)}")
            columns = entry["fields"]
            if len(columns) != len(table.field_names):
                raise TSDBError(
                    f"table {table.name!r}: dumped series {key!r} has "
                    f"{len(columns)} field columns, schema has "
                    f"{len(table.field_names)}")
            ts_values = entry["ts"]
            if any(len(column) != len(ts_values) for column in columns):
                raise TSDBError(
                    f"table {table.name!r}: dumped series {key!r} has "
                    "ragged field columns")
            buf = _SeriesBuffer(len(table.field_names))
            buf.extend([float(ts) for ts in ts_values],
                       [[float(v) for v in column] for column in columns])
            table._series[key] = buf
        return table


class TimeSeriesDB:
    """A named collection of tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, tag_names: Sequence[str],
                     field_names: Sequence[str]) -> Table:
        if name in self._tables:
            raise TSDBError(f"table {name!r} already exists")
        table = Table(name, tag_names, field_names)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TSDBError(f"unknown table {name!r}") from None

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def dump(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every table (see Table.dump)."""
        return {"tables": [self._tables[name].dump()
                           for name in self.tables()]}

    @classmethod
    def from_dump(cls, dump: Dict[str, object]) -> "TimeSeriesDB":
        """Rebuild a database from :meth:`dump` output."""
        try:
            entries = dump["tables"]
        except (KeyError, TypeError):
            raise TSDBError("malformed database dump") from None
        db = cls()
        for entry in entries:
            table = Table.from_dump(entry)
            if table.name in db._tables:
                raise TSDBError(
                    f"database dump repeats table {table.name!r}")
            db._tables[table.name] = table
        return db
