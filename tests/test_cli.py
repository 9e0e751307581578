"""CLI subcommands."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])


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


def test_quickloop_command(capsys):
    assert main(["quickloop", "--scale", "0.05", "--days", "2",
                 "--region", "us-west1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "tests completed" in out
    assert "congested s-days" in out


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
    import json

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
