"""Speedchecker-style edge latency probing.

The differential-based selection starts from a preliminary study: from
vantage points (VPs) in thousands of <city, AS> tuples, measure latency
to cloud VMs reachable over the premium and the standard network tier,
keep tuples with >100 samples, and compare the per-tuple medians.  Our
VPs are software agents in access-ISP PoPs with a per-VP last-mile
latency offset; probes are timestamped across several simulated days so
diurnal queueing is represented in the medians.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cloud.api import CloudPlatform, Direction
from ..errors import NoRouteError
from ..rng import SeedTree
from ..simclock import CAMPAIGN_START
from ..units import DAY

__all__ = ["VantagePoint", "TupleMedian", "Speedchecker"]

#: Agents in the platform's population (sampled from every access-ISP PoP).
MAX_VPS = 400
#: Probes per VP and tier, at times spread over :data:`SPAN_DAYS` days.
SAMPLES_PER_TUPLE = 120
SPAN_DAYS = 5
#: A tuple needs this many answered probes to report a median (the
#: paper kept tuples with >100 samples).
MIN_SAMPLES = 100


@dataclass(frozen=True)
class VantagePoint:
    """One edge agent: a host in a <city, AS> tuple."""

    asn: int
    city_key: str
    pop_id: int
    last_mile_ms: float


@dataclass(frozen=True)
class TupleMedian:
    """Aggregated latency for one <city, AS, region, tier> tuple."""

    asn: int
    city_key: str
    region: str
    tier: enum.Enum
    median_rtt_ms: float
    n_samples: int


class Speedchecker:
    """Edge probing platform bound to the simulated cloud."""

    def __init__(self, platform: CloudPlatform,
                 seeds: Optional[SeedTree] = None) -> None:
        self.platform = platform
        self._seeds = seeds or SeedTree(0)
        self._rng = self._seeds.generator("speedchecker")
        self._vps: Optional[List[VantagePoint]] = None

    # ------------------------------------------------------------------

    def vantage_points(self) -> List[VantagePoint]:
        """Enumerate (and cache) the platform's agent population."""
        if self._vps is not None:
            return self._vps
        topo = self.platform.topology
        candidates: List[Tuple[int, str, int]] = []
        for asn in self.platform.internet.access_isp_asns:
            for pop in topo.pops_of_as(asn):
                if pop.is_host:
                    continue
                candidates.append((asn, pop.city_key, pop.pop_id))
        candidates.sort()
        if len(candidates) > MAX_VPS:
            idx = self._rng.choice(len(candidates), size=MAX_VPS,
                                   replace=False)
            candidates = [candidates[int(i)] for i in sorted(idx)]
        self._vps = [
            VantagePoint(asn=asn, city_key=city, pop_id=pop_id,
                         last_mile_ms=float(self._rng.uniform(2.0, 18.0)))
            for asn, city, pop_id in candidates
        ]
        return self._vps

    # ------------------------------------------------------------------

    def probe(self, vp: VantagePoint, vm, ts: float) -> Optional[float]:
        """One RTT probe from a VP to a VM; None when unreachable."""
        try:
            fwd = self.platform.route(vm, vp.pop_id, Direction.INGRESS)
            rev = self.platform.route(vm, vp.pop_id, Direction.EGRESS)
        except NoRouteError:
            return None
        metrics = self.platform.path_model.evaluate(fwd, ts, rev)
        jitter = float(self._rng.exponential(0.8))
        return metrics.rtt_ms + 2.0 * vp.last_mile_ms + jitter

    def measure(self, region_names: Sequence[str],
                start_ts: float = CAMPAIGN_START,
                tiers: Optional[Sequence[enum.Enum]] = None,
                name_prefix: str = "speedchecker") -> List[TupleMedian]:
        """Run the preliminary latency study.

        Creates one VM per (region, tier) - on GCP that is the premium
        + standard pair - probes every VP :data:`SAMPLES_PER_TUPLE` times
        at hours spread over :data:`SPAN_DAYS`, and returns the per-tuple
        medians with at least :data:`MIN_SAMPLES` (some probes fail to
        route or time out).  *tiers* restricts the study to a subset of
        the provider's tiers (the cross-cloud provider-choice study
        probes one tier per provider); *name_prefix* keeps a second study
        on the same platform from colliding with the first one's VM
        names.
        """
        study_tiers = tuple(tiers if tiers is not None
                            else self.platform.provider.tiers)
        probe_mtype = self.platform.provider.probe_machine_type
        vps = self.vantage_points()
        out: List[TupleMedian] = []
        for region in region_names:
            vms = {}
            for tier in study_tiers:
                vms[tier] = self.platform.create_vm(
                    region, probe_mtype, tier, start_ts,
                    name=f"{name_prefix}-{region}-{tier.value}")
            try:
                for vp in vps:
                    probe_times = (start_ts + self._rng.uniform(
                        0, SPAN_DAYS * DAY, size=SAMPLES_PER_TUPLE))
                    for tier in study_tiers:
                        samples: List[float] = []
                        for ts in probe_times:
                            # ~4% of probes are lost at the edge.
                            if self._rng.random() < 0.04:
                                continue
                            rtt = self.probe(vp, vms[tier], float(ts))
                            if rtt is not None:
                                samples.append(rtt)
                        if len(samples) < MIN_SAMPLES:
                            continue
                        out.append(TupleMedian(
                            asn=vp.asn, city_key=vp.city_key, region=region,
                            tier=tier,
                            median_rtt_ms=float(np.median(samples)),
                            n_samples=len(samples)))
            finally:
                for tier in study_tiers:
                    self.platform.terminate_vm(vms[tier].name,
                                               start_ts + SPAN_DAYS * DAY)
        return out
