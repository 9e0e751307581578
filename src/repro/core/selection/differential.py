"""Differential-based server selection.

From the Speedchecker preliminary study, compare the median latency to
a region over the standard vs the premium tier per <city, AS> tuple
(tuples need >100 samples).  Tuples where the tiers differ by at least
50 ms in absolute value, or by less than 10 ms, become *candidates*;
speed test servers in the same <city, AS> as a candidate tuple are
eligible, and 15-17 of them are chosen per region, heuristically
maximising geographic and network coverage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ... import obs
from ...cloud.tiers import NetworkTier
from ...errors import SelectionError
from ...speedtest.catalog import ServerCatalog
from ...speedtest.server import SpeedTestServer
from ...tools.prefix2as import Prefix2AS
from ...tools.speedchecker import TupleMedian

__all__ = ["LatencyClass", "DifferentialCandidate",
           "DifferentialSelection", "DifferentialSelector"]


class LatencyClass(enum.Enum):
    """How the tiers compared in the preliminary latency study."""

    PREMIUM_LOWER = "premium_lower"      # premium at least 50 ms faster
    COMPARABLE = "comparable"            # |difference| < 10 ms
    STANDARD_LOWER = "standard_lower"    # standard at least 50 ms faster


@dataclass(frozen=True)
class DifferentialCandidate:
    """A <city, AS> tuple whose tier latencies satisfied a condition."""

    city_key: str
    asn: int
    region: str
    premium_ms: float
    standard_ms: float
    latency_class: LatencyClass

    @property
    def delta_ms(self) -> float:
        """standard - premium (positive = premium faster)."""
        return self.standard_ms - self.premium_ms


@dataclass
class DifferentialSelection:
    """Chosen servers for one region, with their latency classes."""

    region: str
    candidates: List[DifferentialCandidate] = field(default_factory=list)
    #: (server, the candidate tuple that qualified it)
    selected: List[Tuple[SpeedTestServer, DifferentialCandidate]] = \
        field(default_factory=list)

    def server_ids(self) -> List[str]:
        return [s.server_id for s, _c in self.selected]



class DifferentialSelector:
    """Classifies tuples and picks the per-region server list."""

    #: Paper's thresholds: >= 50 ms apart, or < 10 ms apart.
    BIG_DELTA_MS = 50.0
    SMALL_DELTA_MS = 10.0
    #: Tuples need more than this many samples to count.
    MIN_SAMPLES = 100

    def __init__(self, catalog: ServerCatalog, prefix2as: Prefix2AS) -> None:
        self._catalog = catalog
        self._p2a = prefix2as

    # ------------------------------------------------------------------

    def classify(self, medians: Sequence[TupleMedian],
                 region: str) -> List[DifferentialCandidate]:
        """Pair up tiers per <city, AS> and keep qualifying tuples."""
        by_tuple: Dict[Tuple[str, int], Dict[NetworkTier, TupleMedian]] = {}
        for m in medians:
            if m.region != region or m.n_samples <= self.MIN_SAMPLES:
                continue
            by_tuple.setdefault((m.city_key, m.asn), {})[m.tier] = m
        candidates: List[DifferentialCandidate] = []
        for (city_key, asn), tiers in sorted(by_tuple.items()):
            prem = tiers.get(NetworkTier.PREMIUM)
            std = tiers.get(NetworkTier.STANDARD)
            if prem is None or std is None:
                continue
            delta = std.median_rtt_ms - prem.median_rtt_ms
            if abs(delta) >= self.BIG_DELTA_MS:
                cls = (LatencyClass.PREMIUM_LOWER if delta > 0
                       else LatencyClass.STANDARD_LOWER)
            elif abs(delta) < self.SMALL_DELTA_MS:
                cls = LatencyClass.COMPARABLE
            else:
                continue
            candidates.append(DifferentialCandidate(
                city_key=city_key, asn=asn, region=region,
                premium_ms=prem.median_rtt_ms,
                standard_ms=std.median_rtt_ms,
                latency_class=cls))
        return candidates

    def eligible_servers(self, candidate: DifferentialCandidate
                         ) -> List[SpeedTestServer]:
        """Servers in the candidate's <city, AS> (AS via prefix-to-AS)."""
        out = []
        for server in self._catalog:
            if server.city_key != candidate.city_key:
                continue
            if self._p2a.lookup(server.ip) != candidate.asn:
                continue
            out.append(server)
        return sorted(out, key=lambda s: s.server_id)

    # ------------------------------------------------------------------

    def select(self, medians: Sequence[TupleMedian], region: str,
               target_count: int = 16) -> DifferentialSelection:
        """Pick ~*target_count* servers maximising coverage.

        Greedy: round-robin over latency classes; within a class prefer
        candidates in countries and cities not yet represented, one
        server per <city, AS>.
        """
        if target_count < 1:
            raise SelectionError(
                f"target_count must be >= 1, got {target_count}")
        with obs.span("selection.differential.select"):
            selection = self._select(medians, region, target_count)
        return selection

    def _select(self, medians: Sequence[TupleMedian], region: str,
                target_count: int) -> DifferentialSelection:
        candidates = self.classify(medians, region)
        selection = DifferentialSelection(region=region,
                                          candidates=candidates)

        pools: Dict[LatencyClass, List[Tuple[DifferentialCandidate,
                                             SpeedTestServer]]] = {
            c: [] for c in LatencyClass}
        for candidate in candidates:
            servers = self.eligible_servers(candidate)
            if servers:
                pools[candidate.latency_class].append(
                    (candidate, servers[0]))
        # Bigger |delta| first inside each class: the most informative
        # comparisons, mirroring "heuristically maximizing coverage".
        for pool in pools.values():
            pool.sort(key=lambda item: (-abs(item[0].delta_ms),
                                        item[1].server_id))

        seen_tuples: Set[Tuple[str, int]] = set()
        seen_countries: Dict[str, int] = {}
        order = [LatencyClass.PREMIUM_LOWER, LatencyClass.STANDARD_LOWER,
                 LatencyClass.COMPARABLE]
        while len(selection.selected) < target_count:
            progressed = False
            for cls in order:
                if len(selection.selected) >= target_count:
                    break
                pool = pools[cls]
                pick_idx = None
                # Prefer a country not yet doubly represented.
                for idx, (candidate, server) in enumerate(pool):
                    key = (candidate.city_key, candidate.asn)
                    if key in seen_tuples:
                        continue
                    if seen_countries.get(server.country, 0) < 2:
                        pick_idx = idx
                        break
                    if pick_idx is None:
                        pick_idx = idx
                if pick_idx is None:
                    continue
                candidate, server = pool.pop(pick_idx)
                key = (candidate.city_key, candidate.asn)
                if key in seen_tuples:
                    continue
                seen_tuples.add(key)
                seen_countries[server.country] = \
                    seen_countries.get(server.country, 0) + 1
                selection.selected.append((server, candidate))
                progressed = True
            if not progressed:
                break
        return selection
