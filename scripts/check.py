#!/usr/bin/env python
"""One-stop verification: lint, a CLI smoke, the tests, a bench smoke.

This is what ``make check`` runs.  The lint pass runs every rule,
per-file and cross-file (RPR010/RPR011), once over ``src/repro``.
The CLI smoke runs one small monitored campaign as ``python -m
repro.cli campaign ... --format prom --profile DIR --export DIR
--trace PATH`` in a subprocess and requires exit 0, ``ALERTS{``
series in its output, a ``spans.jsonl`` listing the pipeline's stage
spans ``scenario.build``, ``selection.topology.run``,
``orchestrator.deploy`` and ``campaign.run`` with one call each, and
an export manifest whose ``n_measurements`` equals the trace's
``test-completed`` lines.  The numpy
stream-compat gate (``tests/test_rng.py -k "first_uniforms or
chunked_normal"``) checks that ``SeedTree.first_uniforms``, which
re-implements numpy's ``SeedSequence`` and PCG64 seeding, still equals
``default_rng``, and that ``Generator.normal`` drawn in chunks equals
one draw of the same total size, which the lazily grown link noise
relies on: a numpy release that changed either fails there by name
instead of as a golden-digest mismatch.  The batch-equivalence
suite (``tests/test_shard.py``, byte-identical digests and event
streams with the vectorized path on and off), the provider
conformance suite (``tests/test_providers.py``, every registered
cloud provider against the shared contract), and the streaming
equivalence suite (``tests/test_streaming.py``, incremental detection
== batch ``detect()`` across fault plans x execution paths) then gate
the run before the full test suite.

The benchmark contract gate runs ``perfbench/run.py --workload W
--tiny --trace 1`` once for each workload ``BENCHMARK.json`` names and
fails on a non-zero exit: a broken correctness gate (digest or
selection drift between repetitions, a failed workload check) or a
traced layer that never ran.  It keeps constructor and method changes
honest against the frozen ``perfbench/`` harness, which no test
imports.  It reads ``perfbench/`` and writes nothing (bytecode writing
is off for it); about 20 s on a 2-core host.

Coverage enforcement for ``repro.faults``, ``repro.engine``,
``repro.obs``, and ``repro.shard`` (configured in pyproject.toml,
>=90% lines) activates automatically when pytest-cov is installed;
without it the suite still runs, just without the coverage gate, so
the check works in minimal environments.  The bench smoke runs the
observability-overhead benchmark at a tiny scale to catch
instrumentation cost regressions without the full bench harness.

Set ``REPRO_BENCH_TREND=1`` to append a perf-trend gate
(``scripts/bench_trend.py``): it re-measures the batch and streaming
speedup ratios at the committed ``BENCH_campaign.json`` shapes and
fails on a >20% regression.  Opt-in because the fresh campaign runs
add ~15s.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _run(label, argv):
    print(f"== {label}: {' '.join(argv)}", flush=True)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{SRC}{os.pathsep}{existing}" if existing
                         else str(SRC))
    return subprocess.call(argv, cwd=str(REPO_ROOT), env=env)


def _cli_smoke() -> int:
    """Run one monitored, profiled campaign through ``python -m repro.cli``.

    A subprocess, so the ``__main__`` entry point and the exit status
    are exercised, which in-process ``main([...])`` tests never reach.
    """
    with tempfile.TemporaryDirectory() as scratch:
        profile_dir = pathlib.Path(scratch, "profile")
        export_dir = pathlib.Path(scratch, "export")
        trace_path = pathlib.Path(scratch, "trace.jsonl")
        argv = [sys.executable, "-m", "repro.cli", "campaign", "--scale",
                "0.05", "--days", "1", "--servers", "4", "--rules",
                "examples/rules_default.json", "--format", "prom",
                "--profile", str(profile_dir), "--export", str(export_dir),
                "--trace", str(trace_path)]
        print(f"== cli smoke: {' '.join(argv[1:])}", flush=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(argv, cwd=str(REPO_ROOT), env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        if "ALERTS{" not in proc.stdout:
            print("cli smoke: no ALERTS series in the prom output",
                  file=sys.stderr)
            return 1
        spans = (profile_dir / "spans.jsonl").read_text()
        calls = {row["name"]: row["calls"]
                 for row in map(json.loads, spans.splitlines())}
        manifest = json.loads((export_dir / "manifest.json").read_text())
        completed = sum(json.loads(line)["kind"] == "test-completed"
                        for line in trace_path.read_text().splitlines())
    if manifest["n_measurements"] != completed:
        print(f"cli smoke: the export holds {manifest['n_measurements']} "
              f"measurements, the trace {completed} test-completed "
              "events", file=sys.stderr)
        return 1
    for name in ("scenario.build", "selection.topology.run",
                 "orchestrator.deploy", "campaign.run"):
        if calls.get(name) != 1:
            print(f"cli smoke: spans.jsonl lists {name} with "
                  f"{calls.get(name, 0)} calls, expected 1",
                  file=sys.stderr)
            return 1
    return 0


def _benchmark_contract() -> int:
    """Run every declared benchmark workload once, tiny and traced."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        argv = [sys.executable, "perfbench/run.py", "--workload",
                workload["name"], "--tiny", "--trace", "1"]
        print(f"== benchmark contract gate: {' '.join(argv[1:])}",
              flush=True)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(argv, cwd=str(REPO_ROOT), env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            return proc.returncode
    return 0


def main() -> int:
    status = _run("lint", [sys.executable, "-m", "repro.lint",
                           str(SRC / "repro")])
    if status != 0:
        return status

    status = _cli_smoke()
    if status != 0:
        return status

    status = _run("numpy stream-compat gate", [
        sys.executable, "-m", "pytest", "-q", "-x", "tests/test_rng.py",
        "-k", "first_uniforms or chunked_normal"])
    if status != 0:
        return status

    status = _run("batch equivalence gate", [
        sys.executable, "-m", "pytest", "-q", "-x", "tests/test_shard.py"])
    if status != 0:
        return status

    status = _run("provider conformance gate", [
        sys.executable, "-m", "pytest", "-q", "-x",
        "tests/test_providers.py"])
    if status != 0:
        return status

    status = _run("streaming equivalence gate", [
        sys.executable, "-m", "pytest", "-q", "-x",
        "tests/test_streaming.py"])
    if status != 0:
        return status

    status = _benchmark_contract()
    if status != 0:
        return status

    pytest_argv = [sys.executable, "-m", "pytest", "-q"]
    if importlib.util.find_spec("pytest_cov") is not None:
        pytest_argv += ["--cov", "--cov-fail-under=90"]
    else:
        print("== note: pytest-cov not installed; skipping the "
              "repro.faults / repro.engine / repro.obs / repro.shard "
              "coverage gate", flush=True)
    status = _run("tests", pytest_argv)
    if status != 0:
        return status

    status = _run("bench smoke", [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "benchmarks/bench_obs_overhead.py"])
    if status != 0:
        return status

    if os.environ.get("REPRO_BENCH_TREND") == "1":
        return _run("bench trend gate", [
            sys.executable, "scripts/bench_trend.py"])
    print("== note: REPRO_BENCH_TREND not set; skipping the perf-trend "
          "gate (scripts/bench_trend.py)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
