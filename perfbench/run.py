"""End-to-end benchmark of the CLASP pipeline, one workload per run.

    python3 perfbench/run.py --workload faulty-campaign --seed 7 --seconds 60 --trace 0

Each repetition is a fresh ``worker.py`` process that builds the
workload's seed-derived world and runs the whole pipeline on it (build,
select, deploy, campaign, detect); one process, no threads, shards=1.

* ``--trace 0`` repeats until ``--seconds`` are spent and reports the
  median of every end-to-end metric over the repetitions.
* ``--trace 1`` runs once untraced and once with every call in
  ``layers.LAYERS`` wrapped, and reports the per-layer records plus
  ``trace_overhead`` (traced ``run_s`` / untraced ``run_s``).

Correctness gate: all repetitions of one seed, traced or not, must give
the same dataset digest and the same selected servers per region, and
pass the workload's own checks (see ``workloads.run``); a traced run
must also have called every layer the table assigns to the workload.
A run that fails the gate prints ``"correct": false`` and exits 1.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (tracing off): name -> unit.  Times are
#: host-normalized seconds (see workloads.py).
END_TO_END = {
    "setup_s": "s",            # build_scenario
    "select_s": "s",           # pilot scans of every region
    "campaign_s": "s",         # run_campaign
    "run_s": "s",              # select + deploy + campaign + detect (+ finalize)
    "tests_per_s": "1/s",      # completed tests / campaign_s
    "peak_rss_mb": "MB",       # ru_maxrss of the repetition's process
    "completed_share": "ratio",  # completed / (completed + failed or lost slots)
}
#: A repetition must end well inside a run's 180 s.
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    """A repetition crashed or timed out."""


def _repetition(args: argparse.Namespace, trace: bool) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if trace:
        cmd.append("--trace")
    # One process, one thread: keep numpy's BLAS off the other cores.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"repetition exceeded {WORKER_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise WorkerError(f"repetition exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(rec: Dict[str, Any]) -> Dict[str, float]:
    completed, lost = rec["completed"], rec["lost"]
    return {
        "setup_s": rec["setup_s"],
        "select_s": rec["select_s"],
        "campaign_s": rec["campaign_s"],
        "run_s": rec["run_s"],
        "tests_per_s": completed / rec["campaign_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "completed_share": completed / (completed + lost),
    }


def _gate(records: List[Dict[str, Any]]) -> List[Tuple[int, str]]:
    """(repetition index, problem) for every failed check."""
    problems = [(i, p) for i, rec in enumerate(records)
                for p in rec["problems"]]
    first = records[0]
    for i, rec in enumerate(records[1:], 1):
        if rec["digest"] != first["digest"]:
            problems.append((i, "dataset digest differs from repetition 0"))
        if rec["selected"] != first["selected"]:
            problems.append((i, "selected servers differ from repetition 0"))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the CLASP pipeline.")
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shape: scale 0.05, one day")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    records: List[Dict[str, Any]] = []
    crashed: List[str] = []
    try:
        if args.trace:
            records.append(_repetition(args, trace=False))
            records.append(_repetition(args, trace=True))
        else:
            deadline = time.perf_counter() + args.seconds
            while True:
                start = time.perf_counter()
                records.append(_repetition(args, trace=False))
                now = time.perf_counter()
                # Start another repetition only if it should end in time.
                if now + (now - start) > deadline:
                    break
    except WorkerError as err:
        crashed.append(str(err))

    problems = _gate(records) if records else []
    traced = records[1] if args.trace and len(records) == 2 else None
    if traced is not None:
        problems += [(1, f"{name} never ran on {args.workload}")
                     for name in layers.unused_layers(traced["layers"],
                                                      args.workload)]
    for i, rec in enumerate(records):
        kind = "traced" if traced is rec else "untraced"
        print(f"repetition {i} ({kind}): setup {rec['setup_s']:.3f}s "
              f"select {rec['select_s']:.3f}s campaign "
              f"{rec['campaign_s']:.3f}s run {rec['run_s']:.3f}s "
              f"tests {rec['completed']} lost {rec['lost']} "
              f"loop {statistics.mean(rec['calibration_s']):.3f}s "
              f"digest {rec['digest'][:16]}")
    for message in crashed:
        print(f"FAILED: {message}")
    for i, message in problems:
        print(f"FAILED: repetition {i}: {message}")

    metrics: Dict[str, Dict[str, Any]] = {}
    if traced is not None:
        units = layers.metric_units()
        values = dict(traced["layers"])
        values["trace_overhead"] = traced["run_s"] / records[0]["run_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    elif records and not args.trace:
        per_rep = [_end_to_end(rec) for rec in records]
        metrics = {name: {"value": statistics.median(rep[name]
                                                     for rep in per_rep),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")

    failed = len(crashed) + len({i for i, _ in problems})
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct,
                      "attempted": len(records) + len(crashed),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
