#!/usr/bin/env python3
"""Quickstart: build a world, select servers, measure, detect congestion.

Runs the whole CLASP loop end to end at a small scale (about a minute):

1. generate a synthetic Internet with a cloud platform in it,
2. run the topology-based pilot scan (bdrmap + traceroutes) for one
   region and pick one server per interconnection,
3. deploy measurement VMs and run a 5-day hourly campaign,
4. detect congestion events and print the summary.

Usage::

    python examples/quickstart.py [--scale 0.15] [--days 5] [--seed 7]
"""

import argparse

import numpy as np

from repro.core.congestion import threshold_sweep
from repro.experiments import Pipeline
from repro.report.tables import TextTable, format_percent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15,
                        help="world scale (1.0 = paper size)")
    parser.add_argument("--days", type=int, default=5,
                        help="campaign length in days")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--region", default="us-west1")
    args = parser.parse_args()

    print(f"Building scenario (seed={args.seed}, scale={args.scale}) ...")
    pipeline = Pipeline(seed=args.seed, scale=args.scale, days=args.days,
                        regions=(args.region,))
    scenario = pipeline.scenario
    stats = scenario.internet.topology.stats()
    print(f"  {stats['ases']} ASes, {stats['links']} links, "
          f"{len(scenario.catalog)} speed test servers")

    print(f"\nPilot scan for {args.region} "
          "(bdrmap + traceroutes to every U.S. server) ...")
    selection = pipeline.topology_selection(args.region)
    print(f"  bdrmap found {selection.n_interdomain_links} interdomain "
          "links")
    print(f"  U.S. servers traverse {selection.n_links_traversed} "
          "distinct links "
          f"({format_percent(selection.shared_interconnection_fraction)} "
          "of servers share one)")
    print(f"  selected {len(selection.selected)} servers "
          "(one per interconnection)")

    print(f"\nDeploying measurement VMs and running {args.days} days "
          "of hourly tests ...")
    dataset = pipeline.topology_dataset()
    print(f"  {dataset.completed_tests} tests completed "
          f"({dataset.failed_tests} failed), "
          f"cloud bill so far: ${pipeline.clasp.total_cost_usd():,.2f}")

    print("\nCongestion detection (V_H > 0.5 below the daily peak):")
    report = pipeline.report()
    table = TextTable(["metric", "value"])
    table.add_row(["pair-days measured", report.n_s_days])
    table.add_row(["congested pair-days",
                   format_percent(report.congested_day_fraction)])
    table.add_row(["congested pair-hours",
                   format_percent(report.congested_hour_fraction, 2)])
    congested = report.congested_pairs()
    table.add_row(["servers with congestion on >10% of days",
                   f"{len(congested)} / {len(report.pair_hours)}"])
    print(table.render())

    if congested:
        print("\nMost congested servers:")
        ranked = sorted(congested,
                        key=lambda p: -len(report.events_of(p)))[:5]
        for pair in ranked:
            meta = dataset.server_meta(pair[1])
            events = report.events_of(pair)
            hours = sorted({e.local_hour for e in events})
            print(f"  {meta.label:45s} {len(events):4d} events, "
                  f"local hours {hours[0]:02d}-{hours[-1]:02d}")

    hs, day_frac, _ = threshold_sweep(dataset, np.arange(0.1, 1.0, 0.1))
    print("\nThreshold sweep (fraction of congested pair-days vs H):")
    print("  " + "  ".join(f"H={h:.1f}:{f * 100:4.1f}%"
                           for h, f in zip(hs, day_frac)))


if __name__ == "__main__":
    main()
