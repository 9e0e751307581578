"""The tagged time-series store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tsdb import Table, TimeSeriesDB
from repro.errors import TSDBError


@pytest.fixture()
def table():
    t = Table("speedtest", ("region", "server"), ("down", "up"))
    t.append(3.0, ("w1", "s1"), (300.0, 95.0))
    t.append(1.0, ("w1", "s1"), (100.0, 90.0))
    t.append(2.0, ("w1", "s2"), (200.0, 92.0))
    t.append(5.0, ("e1", "s1"), (400.0, 91.0))
    return t


def test_schema_validation():
    with pytest.raises(TSDBError):
        Table("t", ("a",), ())
    with pytest.raises(TSDBError):
        Table("t", ("a", "a"), ("f",))
    with pytest.raises(TSDBError):
        Table("t", ("a",), ("f", "f"))


def test_append_validates_arity(table):
    with pytest.raises(TSDBError):
        table.append(1.0, ("w1",), (1.0, 2.0))
    with pytest.raises(TSDBError):
        table.append(1.0, ("w1", "s1"), (1.0,))


def test_series_sorted_by_ts(table):
    series = table.series(("w1", "s1"))
    assert list(series["ts"]) == [1.0, 3.0]
    assert list(series["down"]) == [100.0, 300.0]
    assert list(series["up"]) == [90.0, 95.0]


def test_series_missing_tags(table):
    with pytest.raises(TSDBError):
        table.series(("nope", "s1"))


def test_tag_combinations_and_distinct(table):
    assert table.tag_combinations() == [("e1", "s1"), ("w1", "s1"),
                                        ("w1", "s2")]
    assert table.distinct("region") == ["e1", "w1"]
    assert table.distinct("server") == ["s1", "s2"]
    with pytest.raises(TSDBError):
        table.distinct("nope")


def test_select_filters(table):
    hits = dict(table.select(region="w1"))
    assert set(hits) == {("w1", "s1"), ("w1", "s2")}
    hits2 = dict(table.select(region="w1", server="s2"))
    assert set(hits2) == {("w1", "s2")}
    with pytest.raises(TSDBError):
        list(table.select(bogus="x"))


def test_count_and_len(table):
    assert len(table) == 4
    assert table.count(region="w1") == 3
    assert table.count(region="w1", server="s1") == 2
    assert table.count(region="zz") == 0


def test_db_management():
    db = TimeSeriesDB()
    db.create_table("a", ("t",), ("f",))
    assert "a" in db
    assert db.tables() == ["a"]
    with pytest.raises(TSDBError):
        db.create_table("a", ("t",), ("f",))
    with pytest.raises(TSDBError):
        db.table("b")


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                          st.sampled_from(["a", "b", "c"]),
                          st.floats(min_value=-1e9, max_value=1e9)),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_series_preserves_all_rows_property(rows):
    table = Table("t", ("tag",), ("value",))
    for ts, tag, value in rows:
        table.append(ts, (tag,), (value,))
    assert len(table) == len(rows)
    for tag in {r[1] for r in rows}:
        expected = sorted((ts, v) for ts, t, v in rows if t == tag)
        series = table.series((tag,))
        assert list(series["ts"]) == [e[0] for e in expected]
        assert len(series["value"]) == len(expected)
        assert np.all(np.diff(series["ts"]) >= 0)


# -- batch extend + the sorted-view cache -----------------------------------

def test_extend_batches_rows_across_series(table):
    table.extend([
        (4.0, ("w1", "s1"), (350.0, 96.0)),
        (0.5, ("w1", "s2"), (150.0, 93.0)),
        (6.0, ("w2", "s9"), (500.0, 99.0)),  # brand-new series
    ])
    assert list(table.series(("w1", "s1"))["ts"]) == [1.0, 3.0, 4.0]
    assert list(table.series(("w1", "s2"))["ts"]) == [0.5, 2.0]
    assert list(table.series(("w2", "s9"))["down"]) == [500.0]
    assert len(table) == 7


def test_extend_validates_arity(table):
    with pytest.raises(TSDBError):
        table.extend([(1.0, ("w1",), (1.0, 2.0))])
    with pytest.raises(TSDBError):
        table.extend([(1.0, ("w1", "s1"), (1.0,))])


def test_extend_matches_repeated_append():
    rows = [(float(ts), ("r", "s"), (float(ts) * 2, 1.0))
            for ts in (3, 1, 2)]
    one = Table("a", ("region", "server"), ("down", "up"))
    for ts, tags, fields in rows:
        one.append(ts, tags, fields)
    other = Table("b", ("region", "server"), ("down", "up"))
    other.extend(rows)
    for key in one.tag_combinations():
        left, right = one.series(key), other.series(key)
        for name in ("ts", "down", "up"):
            assert np.array_equal(left[name], right[name])


def test_columnar_extends_match_repeated_append():
    """extend_columns (row i into series tags[i]) and extend_series (many
    rows into one series) store exactly what row-by-row appends do."""
    rows = [(3.0, ("r", "s"), (6.0, 1.0)), (1.0, ("r", "t"), (2.0, 1.5)),
            (2.0, ("r", "s"), (4.0, 0.5))]
    one = Table("a", ("region", "server"), ("down", "up"))
    for ts, tags, fields in rows:
        one.append(ts, tags, fields)
    other = Table("a", ("region", "server"), ("down", "up"))
    other.extend_columns([r[0] for r in rows], [r[1] for r in rows],
                         [[r[2][0] for r in rows], [r[2][1] for r in rows]])
    assert other.dump() == one.dump()
    series = Table("a", ("region", "server"), ("down", "up"))
    series.extend_series(("r", "s"), [3.0, 2.0], [[6.0, 4.0], [1.0, 0.5]])
    series.extend_series(("r", "t"), [1.0], [[2.0], [1.5]])
    assert series.dump() == one.dump()
    assert list(series.series(("r", "s"))["ts"]) == [2.0, 3.0]


def test_columnar_extends_validate_shape(table):
    with pytest.raises(TSDBError):  # one field column short
        table.extend_columns([1.0], [("w1", "s1")], [[1.0]])
    with pytest.raises(TSDBError):  # ragged columns
        table.extend_columns([1.0, 2.0], [("w1", "s1")], [[1.0], [2.0]])
    with pytest.raises(TSDBError):  # a new series with one tag short
        table.extend_columns([1.0], [("w9",)], [[1.0], [2.0]])
    with pytest.raises(TSDBError):
        table.extend_series(("w1",), [1.0], [[1.0], [2.0]])
    with pytest.raises(TSDBError):
        table.extend_series(("w1", "s1"), [1.0], [[1.0], [2.0, 3.0]])
    assert len(table) == 4  # nothing was written


def test_series_view_is_cached_until_append(table):
    first = table.series(("w1", "s1"))
    again = table.series(("w1", "s1"))
    assert first["ts"] is again["ts"]  # same cached array, no re-sort
    table.append(0.25, ("w1", "s1"), (50.0, 80.0))
    refreshed = table.series(("w1", "s1"))
    assert refreshed["ts"] is not first["ts"]  # cache invalidated
    assert list(refreshed["ts"]) == [0.25, 1.0, 3.0]
    # The stale view still holds its original (pre-append) data.
    assert list(first["ts"]) == [1.0, 3.0]


def test_incremental_views_match_a_stable_argsort_oracle():
    """Every read equals a stable argsort over arrival order, and no
    view handed out earlier ever changes (seeded random workload)."""
    import json

    rng = np.random.default_rng(2020)
    table = Table("t", ("k",), ("v", "arrival"))
    arrivals = {key: [] for key in ("a", "b")}
    handed = []  # (view, contents when handed out)
    seen = {"tail_merge": 0, "older_than_view": 0, "restore": 0}
    clock = 0.0

    def add(key, ts):
        rows = arrivals[key]
        rows.append((float(ts), len(rows)))
        return float(ts), (key,), (float(rng.random()), float(len(rows) - 1))

    for _step in range(600):
        key = ("a", "b")[int(rng.integers(2))]
        rows = arrivals[key]
        op = int(rng.integers(6))
        if op == 0:  # one row near the clock: ties and small reorders
            table.append(*add(key, clock + int(rng.integers(-2, 3))))
        elif op == 1:  # an out-of-order chunk, often before the tail
            k = int(rng.integers(1, 7))
            tail = max((ts for ts, _ in rows), default=clock)
            offsets = rng.integers(-4, 5, size=k)
            seen["tail_merge"] += int(clock + offsets.min() < tail)
            table.extend([add(key, clock + int(d)) for d in offsets])
        elif op == 2 and rows:  # rows older than the whole view
            oldest = min(ts for ts, _ in rows)
            k = int(rng.integers(1, 4))
            table.extend([add(key, oldest - int(rng.integers(0, 3)))
                          for _ in range(k)])
            seen["older_than_view"] += 1
        elif op == 3 and len(table):
            table = Table.from_dump(json.loads(json.dumps(table.dump())))
            seen["restore"] += 1
        clock += int(rng.integers(0, 3))
        if not rows or rng.random() < 0.3:
            continue
        view = table.series((key,))
        ts = np.array([t for t, _ in rows])
        order = np.argsort(ts, kind="stable")
        assert np.array_equal(view["ts"], ts[order])
        assert np.array_equal(view["arrival"], np.arange(len(rows))[order])
        handed.append((view, {name: column.copy()
                              for name, column in view.items()}))
        for old, contents in handed:
            for name, column in old.items():
                assert not column.flags.writeable
                assert np.array_equal(column, contents[name])
    assert all(count > 5 for count in seen.values()), seen
    for entry in table.dump()["series"]:  # dump keeps arrival order
        assert entry["fields"][1] == [float(i)
                                      for i in range(len(entry["ts"]))]


def test_series_arrays_are_read_only(table):
    series = table.series(("w1", "s1"))
    with pytest.raises(ValueError):
        series["ts"][0] = -1.0
    with pytest.raises(ValueError):
        series["down"][0] = -1.0
    assert np.array(series["ts"], copy=True).flags.writeable  # copies work


# ----------------------------------------------------------------------
# persistence (dump / from_dump)


def test_table_dump_round_trip(table):
    clone = Table.from_dump(table.dump())
    assert clone.name == table.name
    assert clone.tag_names == table.tag_names
    assert clone.field_names == table.field_names
    assert len(clone) == len(table)
    for key, original in table.select():
        restored = clone.series(key)
        for column in ("ts",) + table.field_names:
            assert np.array_equal(original[column], restored[column])


def test_table_dump_round_trips_through_json(table):
    import json

    clone = Table.from_dump(json.loads(json.dumps(table.dump())))
    assert clone.dump() == table.dump()


def test_dump_preserves_arrival_order_ties():
    # Two rows at the same ts: the sorted view's stable tie-break
    # follows arrival order, so the dump must preserve it.
    t = Table("t", ("k",), ("v",))
    t.append(1.0, ("a",), (10.0,))
    t.append(1.0, ("a",), (20.0,))
    clone = Table.from_dump(t.dump())
    assert np.array_equal(clone.series(("a",))["v"],
                          t.series(("a",))["v"])


def test_from_dump_rejects_malformed():
    with pytest.raises(TSDBError):
        Table.from_dump({"name": "t"})
    with pytest.raises(TSDBError):
        Table.from_dump([])


def test_from_dump_rejects_tag_arity_mismatch(table):
    dump = table.dump()
    dump["series"][0]["tags"].append("extra")
    with pytest.raises(TSDBError):
        Table.from_dump(dump)


def test_from_dump_rejects_field_column_mismatch(table):
    dump = table.dump()
    dump["series"][0]["fields"].append([0.0])
    with pytest.raises(TSDBError):
        Table.from_dump(dump)


def test_from_dump_rejects_ragged_columns(table):
    dump = table.dump()
    dump["series"][0]["fields"][0].append(999.0)
    with pytest.raises(TSDBError):
        Table.from_dump(dump)


def test_db_dump_round_trip(table):
    db = TimeSeriesDB()
    db.create_table("a", ("k",), ("v",)).append(1.0, ("x",), (2.0,))
    db._tables["speedtest"] = table
    clone = TimeSeriesDB.from_dump(db.dump())
    assert clone.tables() == db.tables()
    assert clone.dump() == db.dump()


def test_db_from_dump_rejects_malformed():
    with pytest.raises(TSDBError):
        TimeSeriesDB.from_dump({})
    with pytest.raises(TSDBError):
        TimeSeriesDB.from_dump(None)


def test_db_from_dump_rejects_repeated_table(table):
    dump = {"tables": [table.dump(), table.dump()]}
    with pytest.raises(TSDBError):
        TimeSeriesDB.from_dump(dump)
