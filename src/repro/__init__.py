"""CLASP reproduction: cloud network performance measurement in simulation.

This package reproduces "Measuring the network performance of Google
Cloud Platform" (IMC 2021) end to end: a synthetic Internet and cloud
platform substrate, the speed test infrastructure, the measurement
tooling (traceroute, bdrmap, flow capture), and CLASP itself - server
selection, VM orchestration, longitudinal campaigns, and congestion
analysis.

Quickstart (a miniature world and a one-day campaign)::

    from repro.experiments import Pipeline

    pipeline = Pipeline(seed=7, scale=0.05, days=1,
                        regions=("us-west1",), budget=8)
    dataset = pipeline.topology_dataset()   # build, select, deploy, run
    report = pipeline.report()              # detect V_H > 0.5 events
    print(f"{report.n_s_hours} s-hours, "
          f"{report.congested_hour_fraction:.1%} congested")
"""

__version__ = "1.0.0"

from .errors import ReproError
from .rng import SeedTree

__all__ = ["ReproError", "SeedTree", "__version__"]
