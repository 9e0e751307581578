"""repro.shard - the vectorized campaign execution path.

An exactly equivalence-preserving acceleration for the campaign hot
loop (golden digests are byte-identical with ``batch`` on or off -
enforced by ``tests/test_shard.py``):

* **Vectorized batch path** (:mod:`repro.shard.batch`): an engine
  ``hour_hook`` precomputes the whole hour's tests in one pass -
  replicating the scalar RNG consumption draw for draw, then
  evaluating all link states, route sums and TCP transfers as flat
  arrays over static per-link and per-route tables, through the
  bit-exact vector twins in :mod:`repro.shard.vectcp`.

Entry points: ``Clasp.run_campaign(batch=True)``, or
``repro campaign --batch`` on the CLI.
"""

from .batch import BatchLaneExecutor, BatchPlanner, batch_executor_factory
from .vectcp import (batch_flows_for_rtt, batch_loss_rate,
                     batch_mean_utilization_grid,
                     batch_multiflow_throughput_mbps,
                     batch_pftk_throughput_mbps, batch_queue_delay_ms,
                     batch_residual_mbps, batch_weekend_mask)

__all__ = [
    "BatchLaneExecutor",
    "BatchPlanner",
    "batch_executor_factory",
    "batch_flows_for_rtt",
    "batch_loss_rate",
    "batch_mean_utilization_grid",
    "batch_multiflow_throughput_mbps",
    "batch_pftk_throughput_mbps",
    "batch_queue_delay_ms",
    "batch_residual_mbps",
    "batch_weekend_mask",
]
