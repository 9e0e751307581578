"""CLI subcommands."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


class _CampaignReached(Exception):
    """Raised by a spy once the campaign length is known."""


def test_experiment_days_flag_wins_and_env_is_left_alone(monkeypatch):
    from repro.core.clasp import Clasp

    monkeypatch.setenv("REPRO_DAYS", "3")
    monkeypatch.delenv("REPRO_SEED", raising=False)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    days_run = []

    def spy(self, plans, days, **kwargs):
        days_run.append(days)
        raise _CampaignReached

    monkeypatch.setattr(Clasp, "run_campaign", spy)
    with pytest.raises(_CampaignReached):
        main(["experiment", "fig3", "--scale", "0.05", "--days", "1",
              "--seed", "17"])
    assert days_run == [1]
    assert os.environ["REPRO_DAYS"] == "3"
    assert "REPRO_SEED" not in os.environ
    assert "REPRO_SCALE" not in os.environ


def test_experiment_matrix_covers_every_provider(capsys):
    assert main(["experiment", "matrix", "--scale", "0.05",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cross-cloud matrix: 5 endpoints "
                          "(gcp, aws, openstack), 20 ordered pairs")
    assert out.count("provider choice") == 2


def test_world_command(capsys):
    assert main(["world", "--scale", "0.05", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "speed test servers" in out
    assert "story networks" in out


def test_cost_command(capsys):
    assert main(["cost", "--servers", "450", "--days", "30"]) == 0
    out = capsys.readouterr().out
    assert "total" in out
    # The paper's "over USD 6k per month" scale.
    total_line = [l for l in out.splitlines() if l.startswith("total")][0]
    total = float(total_line.split()[-1].replace(",", ""))
    assert total > 6000


def test_cost_standard_tier_cheaper(capsys):
    main(["cost", "--servers", "100", "--days", "10",
          "--tier", "premium"])
    prem = capsys.readouterr().out
    main(["cost", "--servers", "100", "--days", "10",
          "--tier", "standard"])
    std = capsys.readouterr().out

    def total(text):
        line = [l for l in text.splitlines() if l.startswith("total")][0]
        return float(line.split()[-1].replace(",", ""))

    assert total(std) < total(prem)


@pytest.mark.parametrize("days", ["0", "-3"])
def test_cost_rejects_campaign_shorter_than_a_day(capsys, days):
    assert main(["cost", "--days", days]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro: error: days must be >= 1, got {days}\n"


#: A small, fast campaign shape shared by the run-pipeline tests.
SMALL = ["--scale", "0.05", "--days", "1", "--seed", "11",
         "--servers", "6"]
RULES = str(Path(__file__).resolve().parent.parent / "examples"
            / "rules_default.json")


def _row(out, label):
    """The value column of the summary-table row named *label*."""
    line = next(line for line in out.splitlines()
                if line.startswith(label + "  "))
    return line[len(label):].strip()


def test_campaign_summary_has_detection_rows(capsys):
    """The congestion rows the old quickstart loop printed."""
    assert main(["campaign", "--scale", "0.05", "--days", "2",
                 "--region", "us-west1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tests completed" in out
    for row in ("congested s-days", "congested s-hours",
                "congested servers"):
        assert row in out
    assert "alert rules" not in out  # no live plane unless asked for


def test_campaign_command_with_faults(capsys, tmp_path):
    out_dir = tmp_path / "export"
    assert main(["campaign", "--scale", "0.05", "--days", "1",
                 "--seed", "3", "--faults", "heavy", "--servers", "6",
                 "--export", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "faults=heavy" in out
    assert "tests completed" in out
    assert "dataset digest" in out
    assert "injected" in out
    assert (out_dir / "manifest.json").exists()
    assert (out_dir / "lost.csv").exists()


@pytest.mark.parametrize("flags", [[], ["--batch"]],
                         ids=["scalar", "batch"])
def test_campaign_command_faults_off_digest_stable(capsys, flags):
    """Rerun, and with ``--batch``, the scalar run's digest reprints."""
    args = ["campaign", "--scale", "0.05", "--days", "1",
            "--seed", "3", "--servers", "6"]
    assert main(args + flags) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out

    def digest(text):
        line = [l for l in text.splitlines()
                if l.startswith("dataset digest")][0]
        return line.split()[-1]

    assert digest(first) == digest(second)
    assert "injected" not in first  # no injector without --faults


def test_campaign_command_trace_and_metrics(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["campaign", "--scale", "0.05", "--days", "1",
                 "--seed", "3", "--servers", "6",
                 "--trace", str(trace_path), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "engine events" in out
    assert "test-completed" in out
    assert "billed vm_hours" in out
    assert f"-> {trace_path}" in out
    lines = trace_path.read_text().splitlines()
    assert lines  # the whole campaign is on disk as JSON events
    kinds = {json.loads(line)["kind"] for line in lines}
    assert {"hour-started", "test-completed",
            "billing-charged", "campaign-finished"} <= kinds


def test_lint_command_clean_tree(capsys):
    import pathlib

    import repro

    src = pathlib.Path(repro.__file__).parent
    assert main(["lint", str(src)]) == 0
    assert "repro.lint: clean" in capsys.readouterr().out


def test_lint_command_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR002", "RPR003", "RPR004",
                 "RPR005", "RPR006", "RPR007", "RPR008"):
        assert code in out


def test_lint_command_flags_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nts = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out


def test_lint_command_select(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nts = time.time()\nraise ValueError('x')\n")
    assert main(["lint", str(bad), "--select", "RPR003"]) == 1
    out = capsys.readouterr().out
    assert "RPR003" in out
    assert "RPR001" not in out


def test_lint_command_writes_no_files(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nts = time.time()\n")
    monkeypatch.chdir(tmp_path)
    assert main(["lint", str(bad)]) == 1
    assert "RPR001" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.py"]


# ----------------------------------------------------------------------
# the live plane attached to one campaign run


def test_campaign_rules_prints_notification_log(capsys):
    assert main(["campaign", *SMALL, "--rules", RULES]) == 0
    out = capsys.readouterr().out
    assert "alert rules" in out
    assert _row(out, "stream == batch detect") == "yes"
    notes = [json.loads(line) for line in out.splitlines()
             if line.startswith("{")]
    assert notes and {n["rule"] for n in notes} == {"vh-budget-burn"}
    assert main(["campaign", *SMALL, "--rules", RULES,
                 "--format", "jsonl"]) == 0
    jsonl = capsys.readouterr().out.splitlines()
    assert [json.loads(line) for line in jsonl] == notes


def test_campaign_prom_has_alerts(capsys):
    assert main(["campaign", *SMALL, "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "collector_observed" in out
    assert "ALERTS{" in out


def test_campaign_runs_state_resume_matches_one_invocation(capsys,
                                                           tmp_path):
    """Two runs in one go == one run, saved, then resumed for another."""
    whole, split = tmp_path / "whole.json", tmp_path / "split.json"
    assert main(["campaign", *SMALL, "--runs", "2",
                 "--state", str(whole)]) == 0
    out = capsys.readouterr().out
    assert "2 x 1-day runs" in out
    assert _row(out, "watermarks strictly monotone") == "yes"
    assert main(["campaign", *SMALL, "--state", str(split)]) == 0
    assert "(resumed)" not in capsys.readouterr().out
    assert main(["campaign", *SMALL, "--state", str(split)]) == 0
    out = capsys.readouterr().out
    assert "(resumed)" in out
    assert _row(out, "collector runs") == "2"
    assert whole.read_bytes() == split.read_bytes()
    assert json.loads(whole.read_text())["runs"] == 2


def test_campaign_runs_finalize_equals_batch_on_concat(capsys):
    assert main(["campaign", *SMALL, "--runs", "2"]) == 0
    out = capsys.readouterr().out
    assert _row(out, "stream == batch detect") == "yes"
    assert _row(out, "tests completed") == "288"


def test_campaign_profile_writes_profile_directory(capsys, tmp_path):
    prof = tmp_path / "prof"
    assert main(["campaign", *SMALL, "--profile", str(prof)]) == 0
    captured = capsys.readouterr()
    assert f"profile: 4 files -> {prof}" in captured.err
    assert sorted(p.name for p in prof.iterdir()) == [
        "metrics.jsonl", "metrics.prom", "profile.txt", "spans.jsonl"]
    names = {json.loads(line)["name"]
             for line in (prof / "spans.jsonl").read_text().splitlines()}
    assert {"tools.bdrmap.run", "campaign.run"} <= names


def test_campaign_profile_counts_every_span(capsys, tmp_path):
    """Span totals stay exact however many spans a run opens."""
    prof = tmp_path / "prof"
    assert main(["campaign", "--scale", "0.05", "--days", "8", "--seed",
                 "3", "--profile", str(prof)]) == 0
    capsys.readouterr()
    rows = {}
    for line in (prof / "spans.jsonl").read_text().splitlines():
        row = json.loads(line)
        rows[row["name"]] = row
    counters = {}
    for line in (prof / "metrics.jsonl").read_text().splitlines():
        metric = json.loads(line)
        if metric["kind"] == "counter":
            counters[metric["name"]] = metric["value"]
    tests = rows["speedtest.run_test"]["calls"]
    assert tests == (counters["speedtest.tests"]
                     + counters.get("speedtest.failures", 0)) == 1536
    assert rows["netsim.tcp.transfer"]["calls"] == 2 * tests
    for name in ("scenario.build", "selection.topology.run",
                 "tools.bdrmap.run", "orchestrator.deploy", "campaign.run"):
        assert rows[name]["calls"] == 1, name


# ----------------------------------------------------------------------
# failure paths: one typed line on stderr, exit status 2


def _error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("repro: error: ")
    assert "Traceback" not in captured.err
    return lines[0]


def test_campaign_truncated_state_is_one_line_error(capsys, tmp_path):
    state = tmp_path / "state.json"
    assert main(["campaign", *SMALL, "--state", str(state)]) == 0
    text = state.read_text()
    state.write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert main(["campaign", *SMALL, "--state", str(state)]) == 2
    assert "not valid JSON" in _error_line(capsys)


def test_campaign_state_missing_key_is_one_line_error(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"schema": "repro-collector/v1",
                                 "detector": {"start_ts": 0.0}}))
    assert main(["campaign", *SMALL, "--state", str(state)]) == 2
    assert "missing key 'snapshot_hours'" in _error_line(capsys)


#: A ``--state`` file written by ``campaign SMALL --state PATH`` before
#: the detector's threshold, metric, sample floor, lateness grace and
#: snapshot cadence became constants; it must keep resuming.
OLD_STATE = Path(__file__).resolve().parent / "data" \
    / "collector_state_run1.json"


def test_campaign_resumes_state_written_before_the_fixed_setting(
        capsys, tmp_path):
    old, whole = tmp_path / "old.json", tmp_path / "whole.json"
    old.write_bytes(OLD_STATE.read_bytes())
    assert main(["campaign", *SMALL, "--state", str(old)]) == 0
    out = capsys.readouterr().out
    assert "(resumed)" in out
    assert _row(out, "collector runs") == "2"
    assert main(["campaign", *SMALL, "--runs", "2",
                 "--state", str(whole)]) == 0
    assert old.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("key, value", [
    (("detector", "lateness_s"), 7200.0),
    (("snapshot_hours",), 6.0),
], ids=["lateness_s", "snapshot_hours"])
def test_campaign_state_with_another_setting_is_one_line_error(
        capsys, tmp_path, key, value):
    state = json.loads(OLD_STATE.read_text())
    parent = state if len(key) == 1 else state[key[0]]
    parent[key[-1]] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert main(["campaign", *SMALL, "--state", str(path)]) == 2
    assert f"{key[-1]}={value!r}" in _error_line(capsys)


@pytest.mark.parametrize("path, value", [
    (("exported", 0, 1), "notint"),
    (("detector", "open", 0, "day"), "zz"),
], ids=["exported-day", "open-day"])
def test_campaign_state_with_a_wrongly_typed_value_is_one_line_error(
        capsys, tmp_path, path, value):
    state = json.loads(OLD_STATE.read_text())
    parent = state
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(state))
    assert main(["campaign", *SMALL, "--state", str(bad)]) == 2
    assert "malformed value" in _error_line(capsys)


@pytest.fixture()
def no_world(monkeypatch):
    """Fail any build of the world; the list records the attempts."""
    import repro.experiments
    import repro.experiments.runner
    built = []

    def build_scenario(**kwargs):
        built.append(kwargs)
        raise AssertionError("the world was built")

    for module in (repro.experiments, repro.experiments.runner):
        monkeypatch.setattr(module, "build_scenario", build_scenario)
    return built


def test_campaign_zero_runs_is_one_line_error(capsys):
    assert main(["campaign", *SMALL, "--runs", "0"]) == 2
    assert "--runs must be >= 1" in _error_line(capsys)


@pytest.mark.parametrize("servers", ["0", "-1"])
def test_campaign_nonpositive_servers_is_one_line_error(capsys, no_world,
                                                        servers):
    args = ["campaign", "--scale", "0.05", "--days", "1", "--seed", "11",
            "--servers", servers]
    assert main(args) == 2
    assert "budget_servers must be >= 1" in _error_line(capsys)
    assert no_world == []


@pytest.mark.parametrize("command, message", [
    (["campaign", "--scale", "0.05", "--seed", "3", "--days", "0"],
     "days must be >= 1, got 0"),
    (["campaign", "--scale", "0.05", "--seed", "3", "--region",
      "nowhere1"], "unknown gcp region 'nowhere1'"),
    (["campaign", "--scale", "0.05", "--seed", "3", "--provider", "aws",
      "--region", "us-west1"], "unknown aws region 'us-west1'"),
    (["experiment", "fig2", "--scale", "0.05", "--days", "0"],
     "days must be >= 1, got 0"),
    (["experiment", "table1", "--scale", "0.05", "--days", "0"],
     "days must be >= 1, got 0"),
], ids=["campaign-days", "campaign-region", "campaign-provider-region",
        "fig2-days", "table1-days"])
def test_bad_shape_fails_before_the_world_is_built(capsys, no_world,
                                                   command, message):
    assert main(command) == 2
    assert message in _error_line(capsys)
    assert no_world == []


@pytest.mark.parametrize("option, path", [
    ("--state", ""),
    ("--state", "missing/s.json"),
    ("--trace", "missing/t.jsonl"),
    ("--export", "file/x"),
], ids=["state-dir", "state-missing-dir", "trace-missing-dir",
        "export-under-file"])
def test_campaign_bad_output_path_is_one_line_error(
        capsys, tmp_path, no_world, option, path):
    """An output path that cannot be written fails before any run."""
    (tmp_path / "file").write_text("")
    assert main(["campaign", *SMALL, option, str(tmp_path / path)]) == 2
    assert _error_line(capsys)
    assert no_world == []


@pytest.mark.parametrize("command, flag, message", [
    (["campaign", *SMALL], "--profile", "File exists"),
    (["experiment", "table1", "--scale", "0.05", "--days", "1"],
     "--profile", "File exists"),
    (["campaign", *SMALL], "--export", "File exists"),
    (["campaign", *SMALL], "--trace", "Is a directory"),
], ids=["campaign", "experiment", "export", "trace"])
def test_bad_profile_path_fails_before_the_world_is_built(
        capsys, tmp_path, no_world, command, flag, message):
    """An unusable output path fails before the world is built: an
    existing file where a directory goes, a directory where a file
    goes."""
    existing = tmp_path / "file"
    existing.write_text("")
    path = tmp_path if flag == "--trace" else existing
    assert main([*command, flag, str(path)]) == 2
    assert message in _error_line(capsys)
    assert no_world == []
