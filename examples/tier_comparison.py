#!/usr/bin/env python3
"""Differential-based tier study: premium WAN vs public Internet.

Reproduces the paper's europe-west1 experiment end to end:

1. run the Speedchecker-style preliminary latency study from edge
   vantage points over both network tiers,
2. classify <city, AS> tuples (premium lower / comparable / standard
   lower) and select ~17 test servers,
3. deploy a premium + standard VM pair and measure for several days,
4. compare the tiers: relative throughput/latency differences and
   per-server win rates (the paper's Fig. 5).

Usage::

    python examples/tier_comparison.py [--days 4] [--scale 0.15]
"""

import argparse

import numpy as np

from repro.core.analysis import tier_comparison
from repro.experiments import Pipeline
from repro.report.ascii import ascii_cdf
from repro.report.tables import TextTable, format_percent

REGION = "europe-west1"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15)
    parser.add_argument("--days", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"Building scenario (scale={args.scale}) ...")
    pipeline = Pipeline(seed=args.seed, scale=args.scale, days=args.days,
                        regions=(REGION,))

    # The study, then the world the paper measured: warm premium
    # interconnects, a few bursty-lossy ones, standard-tier congestion
    # for some targets.
    print("Preliminary latency study from edge vantage points ...")
    selection = pipeline.differential_selection(REGION)
    print(f"  {len(selection.candidates)} qualifying <city, AS> tuples, "
          f"{len(selection.selected)} servers selected")
    table = TextTable(["server", "city", "class", "delta (std-prem) ms"])
    for server, candidate in selection.selected:
        table.add_row([server.server_id, server.city_key,
                       candidate.latency_class.value,
                       f"{candidate.delta_ms:+.1f}"])
    print(table.render())

    print(f"\nMeasuring both tiers hourly for {args.days} days ...")
    dataset = pipeline.differential_dataset()
    print(f"  {dataset.completed_tests} tests recorded")

    comparison = tier_comparison(dataset, REGION)
    downloads = comparison.all_deltas("download")
    uploads = comparison.all_deltas("upload")
    latencies = comparison.all_deltas("latency")

    print(f"\nRelative differences, delta = (prem - std) / std "
          f"({comparison.n_matched_hours} matched hours):")
    summary = TextTable(["metric", "std faster", "median delta",
                         "|delta| < 0.5"])
    for name, deltas in (("download", downloads), ("upload", uploads),
                         ("latency", latencies)):
        summary.add_row([
            name,
            format_percent(float((deltas < 0).mean())),
            f"{np.median(deltas):+.3f}",
            format_percent(float((np.abs(deltas) < 0.5).mean())),
        ])
    print(summary.render())

    print("\nDownload delta CDF (negative = standard tier faster):")
    print(ascii_cdf(downloads))

    print("\nPer-server standard-tier win rate (download):")
    for server_id in comparison.servers():
        frac = comparison.standard_faster_fraction(server_id)
        meta = dataset.server_meta(server_id)
        bar = "#" * int(round(frac * 30))
        print(f"  {meta.label[:40]:40s} {bar:30s} "
              f"{format_percent(frac)}")


if __name__ == "__main__":
    main()
