"""Ground-truth validation of inference against the simulator.

A reproduction built on a simulator can do what the paper could not:
check its inference pipelines against reality.  This module provides
the oracles:

* :func:`bdrmap_accuracy` - precision/recall of inferred borders
  against the topology's interdomain registry,
* :func:`congestion_oracle` - the per-sample truth of whether a pair's
  ingress path was actually saturated by background load when a
  measurement ran,
* :func:`detector_scores` - precision/recall/F1 of any
  :class:`~repro.core.detectors.CongestionDetector` against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..cloud.api import CloudPlatform, Direction
from ..errors import AnalysisError
from ..speedtest.catalog import ServerCatalog
from ..tools.bdrmap import BdrmapResult
from .campaign import CampaignDataset
from .congestion import PairKey
from .detectors import DetectionSeries

__all__ = [
    "AccuracyReport",
    "bdrmap_accuracy",
    "congestion_oracle",
    "detector_scores",
]

#: Background utilization at or above which a link counts as saturated.
SATURATED_UTILIZATION = 0.97


@dataclass(frozen=True)
class AccuracyReport:
    """Binary-classification accuracy against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def bdrmap_accuracy(result: BdrmapResult, platform: CloudPlatform
                    ) -> AccuracyReport:
    """Score inferred far-side IPs against the interdomain registry."""
    truth = {r.far_ip for r in platform.topology.interdomain_links(
        platform.cloud_asn)}
    inferred = result.far_ips()
    tp = len(inferred & truth)
    return AccuracyReport(
        true_positives=tp,
        false_positives=len(inferred) - tp,
        false_negatives=len(truth) - tp,
    )


def congestion_oracle(platform: CloudPlatform, catalog: ServerCatalog,
                      dataset: CampaignDataset, pair: PairKey
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """(ts, truth mask): was the ingress path saturated at each test?

    Replays each measurement instant against the traffic model: the
    sample is truly congested when any forward (server-to-cloud) link's
    background utilization is at or above
    :data:`SATURATED_UTILIZATION` - the regime where the loss ramp
    collapses TCP throughput.
    """
    region, server_id, tier = pair
    server = catalog.get(server_id)
    vm = _find_campaign_vm(platform, dataset, pair)
    series = dataset.table.series(pair)
    ts = series["ts"]
    data_route, ack_route = platform.route_pair(
        vm, server.host_pop_id, Direction.INGRESS)
    truth = np.zeros(ts.size, dtype=bool)
    for i, t in enumerate(ts):
        metrics = platform.path_model.evaluate(data_route, float(t),
                                               ack_route)
        truth[i] = metrics.max_forward_utilization >= \
            SATURATED_UTILIZATION
    return ts, truth


def _find_campaign_vm(platform: CloudPlatform, dataset: CampaignDataset,
                      pair: PairKey):
    """Recover the VM that measured a pair (from any of its records)."""
    region, server_id, tier = pair
    # The VM name is stable per pair; read it off the platform's
    # registry by matching region and tier.
    for vm in platform.vms(region_name=region, running_only=False):
        if vm.tier.value == tier:
            return vm
    raise AnalysisError(f"no VM found for pair {pair!r}")


def detector_scores(detection: DetectionSeries, truth_ts: np.ndarray,
                    truth_mask: np.ndarray) -> AccuracyReport:
    """Score one detector's labels against the oracle mask."""
    common, di, ti = np.intersect1d(detection.ts, truth_ts,
                                    return_indices=True)
    if common.size == 0:
        raise AnalysisError("detector and oracle share no timestamps")
    pred = detection.congested[di]
    truth = truth_mask[ti]
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    return AccuracyReport(true_positives=tp, false_positives=fp,
                          false_negatives=fn)
