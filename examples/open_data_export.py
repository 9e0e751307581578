#!/usr/bin/env python3
"""Open-data workflow: run a campaign, publish it, re-analyze it.

The paper released CLASP's measurements publicly; this example shows
the reproduction's equivalent pipeline:

1. run a short campaign,
2. export the dataset to a documented on-disk layout
   (manifest + servers.json + measurements.csv),
3. reload it as an independent consumer would and re-run the
   congestion analysis, verifying the results survive the round trip,
4. render the operational dashboard from the reloaded data.

Usage::

    python examples/open_data_export.py [--out /tmp/clasp-data]
"""

import argparse
import pathlib

from repro.core.congestion import detect
from repro.core.export import export_dataset, load_dataset
from repro.experiments import Pipeline
from repro.report.dashboard import render_dashboard


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="/tmp/clasp-data")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--days", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print("Running a short campaign ...")
    pipeline = Pipeline(seed=args.seed, scale=args.scale, days=args.days,
                        regions=("us-east1",), budget=30)
    dataset = pipeline.topology_dataset()
    print(f"  {dataset.completed_tests} measurements collected")

    out = pathlib.Path(args.out)
    manifest = export_dataset(dataset, out)
    size_kb = sum(f.stat().st_size for f in out.iterdir()) / 1024
    print(f"\nExported to {out} ({size_kb:.0f} KiB):")
    for f in sorted(out.iterdir()):
        print(f"  {f.name}")

    print("\nReloading as an independent consumer ...")
    reloaded = load_dataset(out)
    original_report = pipeline.report()
    reloaded_report = detect(reloaded)
    print(f"  measurements: {len(reloaded)} "
          f"(original {len(dataset)})")
    print(f"  congestion events: {len(reloaded_report.events)} "
          f"(original {len(original_report.events)})")
    match = (len(reloaded) == len(dataset)
             and len(reloaded_report.events)
             == len(original_report.events))
    print(f"  round-trip analysis identical: "
          f"{'yes' if match else 'NO'}")

    print("\n" + render_dashboard(reloaded, reloaded_report, top_k=3))


if __name__ == "__main__":
    main()
