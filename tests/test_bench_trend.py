"""``scripts/bench_trend.py`` fails fast on a doc it cannot read.

A malformed or old-schema ``BENCH_campaign.json`` must stop the gate
before any fresh campaign runs: exit status 1 and one stderr line
naming the missing key, raised as a :class:`~repro.errors.ConfigError`.
Two fresh campaigns that differ stop it the same way.
"""

import importlib.util
import json
import pathlib
import types

import pytest

from repro.errors import ConfigError

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "bench_trend.py")


@pytest.fixture(scope="module")
def bench_trend():
    spec = importlib.util.spec_from_file_location("bench_trend", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _valid_doc():
    shape = {"seed": 7, "scale": 0.35, "days": 2, "regions": ["us-west1"],
             "budget_servers": 40, "faults": "off"}
    return {
        "schema": "bench-campaign/v5",
        "shape": shape,
        "rows": [{"batch": False, "events_per_sec": 1000.0},
                 {"batch": True, "events_per_sec": 3000.0}],
        "streaming_detect": {"shape": dict(shape),
                             "speedup_incremental_vs_rescan": 50.0},
    }


def _run_gate(bench_trend, monkeypatch, tmp_path, capsys, doc):
    path = tmp_path / "BENCH_campaign.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(bench_trend, "BENCH_PATH", path)
    status = bench_trend.main()
    err = capsys.readouterr().err
    return status, err.splitlines()


def test_valid_doc_loads(bench_trend, monkeypatch, tmp_path):
    path = tmp_path / "BENCH_campaign.json"
    path.write_text(json.dumps(_valid_doc()), encoding="utf-8")
    monkeypatch.setattr(bench_trend, "BENCH_PATH", path)
    doc = bench_trend.load_doc()
    assert bench_trend.committed_batch_speedup(doc) == 3.0


@pytest.mark.parametrize("key", ["rows", "shape", "streaming_detect"])
def test_missing_top_level_key_exits_1_naming_it(bench_trend, monkeypatch,
                                                 tmp_path, capsys, key):
    doc = _valid_doc()
    del doc[key]
    status, lines = _run_gate(bench_trend, monkeypatch, tmp_path, capsys,
                              doc)
    assert status == 1
    assert lines == [f"bench-trend: BENCH_campaign.json has no key "
                     f"'{key}'"]


def test_missing_nested_key_is_named_by_path(bench_trend, monkeypatch,
                                             tmp_path, capsys):
    doc = _valid_doc()
    del doc["streaming_detect"]["shape"]["regions"]
    status, lines = _run_gate(bench_trend, monkeypatch, tmp_path, capsys,
                              doc)
    assert status == 1
    assert lines == ["bench-trend: BENCH_campaign.json has no key "
                     "'streaming_detect.shape.regions'"]


def test_old_schema_rows_are_rejected(bench_trend, monkeypatch, tmp_path,
                                      capsys):
    """A v4 doc (one row per shards x batch cell) fails on its schema."""
    doc = _valid_doc()
    doc["schema"] = "bench-campaign/v4"
    doc["rows"] = [dict(row, shards=shards) for shards in (1, 4)
                   for row in doc["rows"]]
    status, lines = _run_gate(bench_trend, monkeypatch, tmp_path, capsys,
                              doc)
    assert status == 1
    assert len(lines) == 1 and "'bench-campaign/v4'" in lines[0]


def test_row_missing_batch_is_named(bench_trend):
    doc = _valid_doc()
    del doc["rows"][1]["batch"]
    with pytest.raises(ConfigError, match=r"'rows\[1\]\.batch'"):
        bench_trend.committed_batch_speedup(doc)


def test_missing_file_and_bad_json_exit_1(bench_trend, monkeypatch,
                                          tmp_path, capsys):
    monkeypatch.setattr(bench_trend, "BENCH_PATH", tmp_path / "absent.json")
    assert bench_trend.main() == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    monkeypatch.setattr(bench_trend, "BENCH_PATH", bad)
    assert bench_trend.main() == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_differing_fresh_campaigns_exit_1(
        bench_trend, monkeypatch, tmp_path, capsys):
    """The batch ratio compares two runs of one campaign: when the fresh
    scalar and batch datasets differ the gate fails, and appends no
    history entry."""
    runs = []

    class _Clasp:
        def run_campaign(self, plans, days, charge_billing, batch):
            runs.append(batch)
            return types.SimpleNamespace(completed_tests=10, batch=batch)

    monkeypatch.setattr(bench_trend, "_deploy_shape",
                        lambda shape: (_Clasp(), []))
    monkeypatch.setattr(bench_trend, "dataset_digest",
                        lambda dataset: f"digest-{dataset.batch}")
    doc = _valid_doc()
    status, lines = _run_gate(bench_trend, monkeypatch, tmp_path, capsys,
                              doc)
    assert status == 1
    assert runs == [False, True]
    assert lines == ["bench-trend: batch and scalar campaigns differ "
                     "(dataset digest or completed tests)"]
    written = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert "history" not in written
