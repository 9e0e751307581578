"""Host-based edge measurement platform (RIPE-Atlas-style).

The paper's motivation: edge platforms like RIPE Atlas or Ark have
vantage points whose coverage "depends on the network and location" of
volunteer hosts, and they "do not support or heavily restrict
throughput measurements using quota systems" to protect access links.
This module models exactly such a platform over the same synthetic
Internet, so the motivation becomes a measurable comparison (see
``benchmarks/bench_motivation_edge_platform.py``):

* probes live in volunteer hosts, concentrated in large ISPs / metros,
* latency measurements are unrestricted,
* throughput measurements consume a per-probe daily quota and are
  capped by the probe's (often slow) access link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple


from ..errors import MeasurementError
from ..netsim.generator import GeneratedInternet
from ..rng import SeedTree
from ..units import DAY

__all__ = ["EdgeProbe", "QuotaExceeded", "EdgePlatform"]

#: Chance that a probe lands in one of the big ISPs rather than the
#: long tail of access networks (volunteer hosts cluster there).
BIAS_TO_BIG_ISPS = 0.75


class QuotaExceeded(MeasurementError):
    """The probe's daily throughput-measurement quota is spent."""


@dataclass
class EdgeProbe:
    """One volunteer vantage point."""

    probe_id: int
    asn: int
    city_key: str
    pop_id: int
    access_mbps: float
    #: Throughput tests allowed per probe per day (Atlas-like quota).
    daily_quota: int = 2
    _spent: Dict[int, int] = field(default_factory=dict)

    def charge_throughput_test(self, ts: float) -> None:
        day = int(ts // DAY)
        used = self._spent.get(day, 0)
        if used >= self.daily_quota:
            raise QuotaExceeded(
                f"probe {self.probe_id} exhausted its "
                f"{self.daily_quota} tests for day {day}")
        self._spent[day] = used + 1


class EdgePlatform:
    """A population of volunteer probes with quota-limited throughput."""

    def __init__(self, internet: GeneratedInternet,
                 n_probes: int = 300,
                 seeds: Optional[SeedTree] = None) -> None:
        if n_probes < 1:
            raise MeasurementError("need at least one probe")
        self.internet = internet
        rng = (seeds or SeedTree(0)).generator("edge-platform")
        topo = internet.topology

        big = set(internet.big_isp_asns)
        big_pops: List[Tuple[int, str, int]] = []
        other_pops: List[Tuple[int, str, int]] = []
        for asn in internet.access_isp_asns:
            for pop in topo.pops_of_as(asn):
                if pop.is_host:
                    continue
                entry = (asn, pop.city_key, pop.pop_id)
                (big_pops if asn in big else other_pops).append(entry)
        big_pops.sort()
        other_pops.sort()

        self.probes: List[EdgeProbe] = []
        for i in range(n_probes):
            use_big = big_pops and (not other_pops
                                    or rng.random() < BIAS_TO_BIG_ISPS)
            pool = big_pops if use_big else other_pops
            asn, city, pop_id = pool[int(rng.integers(len(pool)))]
            # Volunteer access links: mostly residential speeds.
            access = float(rng.choice([25.0, 50.0, 100.0, 300.0, 1000.0],
                                      p=[0.15, 0.25, 0.35, 0.18, 0.07]))
            self.probes.append(EdgeProbe(
                probe_id=i + 1, asn=asn, city_key=city, pop_id=pop_id,
                access_mbps=access))

    # ------------------------------------------------------------------
    # coverage metrics (the motivation comparison)

    def covered_asns(self) -> Set[int]:
        return {p.asn for p in self.probes}

    def coverage_of(self, asns: Sequence[int]) -> float:
        """Fraction of *asns* that host at least one probe."""
        if not asns:
            return 0.0
        covered = self.covered_asns()
        return sum(1 for a in asns if a in covered) / len(asns)

    def big_isp_probe_fraction(self) -> float:
        big = set(self.internet.big_isp_asns)
        return sum(1 for p in self.probes if p.asn in big) \
            / len(self.probes)

    # ------------------------------------------------------------------
    # measurements

    def measure_throughput(self, probe: EdgeProbe, ts: float,
                           path_capacity_mbps: float) -> float:
        """A quota-charged throughput test, capped by the access link.

        Raises :class:`QuotaExceeded` once the probe's daily budget is
        spent - the reason the paper measured from the cloud instead.
        """
        probe.charge_throughput_test(ts)
        return min(probe.access_mbps, path_capacity_mbps)

    def max_daily_tests(self) -> int:
        """Total platform-wide throughput tests available per day."""
        return sum(p.daily_quota for p in self.probes)
