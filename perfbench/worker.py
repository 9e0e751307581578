"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts one of these per repetition so every repetition pays
the cold-start costs a user's run pays and no in-process cache carries
over.  Prints one JSON object: stage times, counts, digest, checks,
peak RSS and, with ``--trace``, the per-layer records.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test shape: scale 0.05, one day")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the per-layer calls and report them")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = layers.LayerTracer()
        tracer.install()
    record = workloads.run(args.seed,
                           workloads.shape_of(args.workload, args.tiny))
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.report()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
