#!/usr/bin/env python
"""Paired benchmark runs of a base revision against the working tree.

    python scripts/perf_pairs.py --base HEAD~1 --workload faulty-campaign --pairs 10

Checks *base* out with ``git worktree`` under a temporary directory and
runs each tree's own ``perfbench/worker.py`` (one fresh process per run,
single-threaded, as ``perfbench/run.py`` does), alternating which tree
runs first in each pair.  Both runs of a pair must give the same dataset
digest and selected server ids, or the script exits 1.

For every end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the working tree won (ties count
for neither) and the verdict of the paired rule: a gain needs at least
nine tenths of the pairs won and a median gap larger than the base's
interquartile range.  It also prints whether the working tree's median
stays within the metric's regression bound.  Times are perfbench's
host-normalized seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
#: A run must end well inside perfbench's own per-repetition limit.
WORKER_TIMEOUT_S = 150


@dataclasses.dataclass(frozen=True)
class Verdict:
    """The paired comparison of one metric."""

    base: Tuple[float, float, float]     # (q1, median, q3)
    change: Tuple[float, float, float]
    wins: int
    pairs: int
    #: Median improvement in the metric's better direction (> 0 is better).
    gap: float
    #: Relative median worsening (> 0 is worse), against the base median.
    worse_by: float

    @property
    def base_iqr(self) -> float:
        return self.base[2] - self.base[0]

    @property
    def gain(self) -> bool:
        """>= 9/10 of the pairs won and a gap wider than the base IQR."""
        return 10 * self.wins >= 9 * self.pairs and self.gap > self.base_iqr


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base: Sequence[float], change: Sequence[float],
            better: str) -> Verdict:
    """Paired verdict for one metric; ``base[i]`` and ``change[i]`` are
    pair *i*, and *better* is ``"lower"`` or ``"higher"``."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    base_q, change_q = quartiles(base), quartiles(change)
    gap = sign * (base_q[1] - change_q[1])
    worse_by = -gap / abs(base_q[1]) if base_q[1] else 0.0
    return Verdict(base_q, change_q, wins, len(base), gap, worse_by)


def _run_worker(tree: pathlib.Path, workload: str,
                seed: int) -> Dict[str, Any]:
    cmd = [sys.executable, str(tree / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"{tree}: worker exited {proc.returncode}: "
                           f"{tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(tree: pathlib.Path):
    """perfbench's own record -> end-to-end metrics function."""
    perfbench = str(tree / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", tree / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
    return module._end_to_end


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_pairs(base_tree: pathlib.Path, workload: str, seed: int,
              pairs: int) -> Tuple[List[Dict[str, Any]],
                                   List[Dict[str, Any]], List[str]]:
    """Alternating runs; returns (base records, change records, problems)."""
    trees = {"base": base_tree, "change": REPO_ROOT}
    records: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    problems = []
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            records[side].append(_run_worker(trees[side], workload, seed))
        base, change = records["base"][-1], records["change"][-1]
        print(f"pair {i}: {order[0]} first, run_s base "
              f"{base['run_s']:.3f} change {change['run_s']:.3f}",
              flush=True)
        if base["digest"] != change["digest"]:
            problems.append(f"pair {i}: dataset digests differ")
        if base["selected"] != change["selected"]:
            problems.append(f"pair {i}: selected server ids differ")
        problems += [f"pair {i}: {side}: {problem}"
                     for side in order for problem in records[side][-1]
                     ["problems"]]
    return records["base"], records["change"], problems


def report(base_records: List[Dict[str, Any]],
           change_records: List[Dict[str, Any]],
           metrics: List[Dict[str, Any]], end_to_end) -> None:
    base = [end_to_end(rec) for rec in base_records]
    change = [end_to_end(rec) for rec in change_records]
    print(f"{'metric':<16} {'base q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'wins':>6} {'gap':>9} {'base IQR':>9}  verdict")
    for metric in metrics:
        name = metric["name"]
        verdict = compare([rep[name] for rep in base],
                          [rep[name] for rep in change], metric["better"])
        bound = ("within bound" if verdict.worse_by <= metric["bound"]
                 else f"WORSE than its {metric['bound']:.0%} bound")
        print(f"{name:<16} "
              f"{'/'.join(f'{v:.4g}' for v in verdict.base):>26} "
              f"{'/'.join(f'{v:.4g}' for v in verdict.change):>26} "
              f"{verdict.wins:>3}/{verdict.pairs:<2} {verdict.gap:>9.4g} "
              f"{verdict.base_iqr:>9.4g}  "
              f"{'gain' if verdict.gain else 'no gain'}, {bound}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    try:
        rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"error: unknown revision {args.base!r}", file=sys.stderr)
        return 2
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    end_to_end = _end_to_end(REPO_ROOT)
    print(f"base {rev[:12]} vs working tree, workload {args.workload}, "
          f"seed {args.seed}, {args.pairs} pairs", flush=True)
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        base_tree = pathlib.Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base_tree), rev)
        try:
            base, change, problems = run_pairs(base_tree, args.workload,
                                               args.seed, args.pairs)
        finally:
            _git("worktree", "remove", "--force", str(base_tree))
    for problem in problems:
        print(f"FAILED: {problem}")
    report(base, change, benchmark["end_to_end"], end_to_end)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
