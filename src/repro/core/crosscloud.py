"""Cross-cloud workloads: the VM-pair matrix and provider choice.

Two workloads become possible once several providers share one
simulated Internet (:class:`~repro.cloud.fleet.CloudFleet`):

* :func:`run_matrix` - a CloudCast-style connectivity matrix: one VM
  per (provider, region) endpoint, every ordered pair evaluated for
  RTT, loss, and achievable multi-flow TCP throughput.  The
  evaluation is pure path-model arithmetic (no RNG), so two
  identically-built fleets give bit-identical matrices.
* :func:`provider_choice` - the differential-selection methodology
  pointed at two *providers* instead of two *tiers*: probe the same
  vantage-point population against a VM in provider A and a VM in
  provider B, relabel A's medians into the premium slot and B's into
  the standard slot of a synthetic region, and run the unchanged
  :class:`~repro.core.selection.differential.DifferentialSelector`.
  ``PREMIUM_LOWER`` then reads "provider A reaches this <city, AS>
  tuple faster", ``STANDARD_LOWER`` the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .. import obs
from ..cloud.fleet import CloudFleet
from ..cloud.tiers import Direction, NetworkTier
from ..errors import (CloudError, NoRouteError, SelectionError,
                      ValidationError)
from ..netsim.tcp import multiflow_throughput_mbps
from ..rng import SeedTree
from ..simclock import CAMPAIGN_START
from ..speedtest.catalog import ServerCatalog
from ..tools.prefix2as import Prefix2AS
from ..tools.speedchecker import Speedchecker, TupleMedian
from .selection.differential import (DifferentialSelection,
                                     DifferentialSelector)

__all__ = ["MatrixCell", "CrossCloudMatrix", "ProviderChoice",
           "run_matrix", "provider_choice"]

#: Parallel flows per matrix transfer (CloudCast used multi-flow iperf).
MATRIX_FLOWS = 6

#: Hour samples per pair: RTT and throughput are medians over these.
MATRIX_SAMPLES = 6
MATRIX_SAMPLE_SPACING_H = 4

#: Targets the provider-choice selection keeps.
PROVIDER_CHOICE_TARGETS = 16


@dataclass(frozen=True)
class MatrixCell:
    """One ordered (source endpoint -> destination endpoint) result."""

    src_provider: str
    src_region: str
    dst_provider: str
    dst_region: str
    rtt_ms: float
    loss_rate: float
    throughput_mbps: float
    reachable: bool = True

    @property
    def cross_provider(self) -> bool:
        return self.src_provider != self.dst_provider


@dataclass
class CrossCloudMatrix:
    """The full ordered-pair matrix plus its endpoint inventory."""

    providers: Tuple[str, ...]
    #: (provider, region) endpoints, in evaluation order.
    endpoints: List[Tuple[str, str]] = field(default_factory=list)
    cells: List[MatrixCell] = field(default_factory=list)

    def cell(self, src_provider: str, src_region: str,
             dst_provider: str, dst_region: str) -> MatrixCell:
        for c in self.cells:
            if (c.src_provider, c.src_region,
                    c.dst_provider, c.dst_region) == (
                    src_provider, src_region, dst_provider, dst_region):
                return c
        raise SelectionError(
            f"no matrix cell {src_provider}/{src_region} -> "
            f"{dst_provider}/{dst_region}")

    def provider_pair_summary(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per (src provider, dst provider): median RTT / throughput."""
        grouped: Dict[Tuple[str, str], List[MatrixCell]] = {}
        for c in self.cells:
            if c.reachable:
                grouped.setdefault((c.src_provider, c.dst_provider),
                                   []).append(c)
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for key, cells in grouped.items():
            rtts = sorted(c.rtt_ms for c in cells)
            tputs = sorted(c.throughput_mbps for c in cells)
            out[key] = {
                "n_pairs": float(len(cells)),
                "median_rtt_ms": _median(rtts),
                "median_throughput_mbps": _median(tputs),
            }
        return out

    @property
    def n_pairs(self) -> int:
        return len(self.cells)


def _median(ordered: Sequence[float]) -> float:
    n = len(ordered)
    if n == 0:
        raise ValidationError("median of an empty sequence")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def _study_region(platform) -> str:
    """A provider's region to probe from: its default, if the metro
    exists at this scenario scale, else the first available region."""
    available = platform.available_regions()
    if not available:
        raise SelectionError(
            f"provider {platform.provider.name!r} has no region whose "
            f"metro exists in this topology")
    default = platform.provider.default_region
    return default if default in available else available[0]


def _endpoint_regions(platform, regions_per_provider: int) -> List[str]:
    available = platform.available_regions()
    if not available:
        raise SelectionError(
            f"provider {platform.provider.name!r} has no region whose "
            f"metro exists in this topology")
    ordered = [_study_region(platform)]
    for region in available:
        if region not in ordered:
            ordered.append(region)
    return ordered[:max(1, regions_per_provider)]


def _free_name(platform, base: str) -> str:
    """*base*, or ``base-N``: VM names stay registered after
    termination, so a second matrix run on the same fleet needs fresh
    ones."""
    name, n = base, 1
    while True:
        try:
            platform.get_vm(name)
        except CloudError:
            return name
        n += 1
        name = f"{base}-{n}"


def _free_study_prefix(platform, base: str, region: str,
                       tier) -> str:
    """A Speedchecker ``name_prefix`` whose VM name is still free."""
    prefix, n = base, 1
    while True:
        try:
            platform.get_vm(f"{prefix}-{region}-{tier.value}")
        except CloudError:
            return prefix
        n += 1
        prefix = f"{base}-{n}"


def run_matrix(fleet: CloudFleet,
               regions_per_provider: int = 2,
               samples: int = MATRIX_SAMPLES) -> CrossCloudMatrix:
    """Evaluate every ordered endpoint pair in the fleet.

    One VM per (provider, region) endpoint - the provider's default
    machine type on its measurement tier, named
    ``xc-{provider}-{region}`` - then, for each ordered pair of
    distinct endpoints, the source platform computes its tier-correct
    egress route to the destination VM's PoP (plus the ingress route
    for the ACK stream), the path model samples RTT/loss/available
    bandwidth at *samples* hours from the campaign start, and the
    throughput is the multi-flow TCP rate capped by the slower VM's
    egress cap.

    Cells are pure functions of (pair, ts) - no RNG - so identically
    built fleets produce the identical matrix; tests pin this.  (Two
    *successive* runs on the same fleet attach fresh VM leaf hosts and
    so may differ slightly - compare matrices across fresh scenarios,
    not reruns.)
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    matrix = CrossCloudMatrix(providers=fleet.names())
    vms: Dict[Tuple[str, str], object] = {}
    start_ts = float(CAMPAIGN_START)
    end_ts = start_ts + samples * MATRIX_SAMPLE_SPACING_H * 3600.0
    with obs.span("crosscloud.run_matrix"):
        try:
            for platform in fleet:
                pname = platform.provider.name
                for region in _endpoint_regions(platform,
                                                regions_per_provider):
                    vm = platform.create_vm(
                        region, platform.provider.default_machine_type,
                        platform.provider.measurement_tier, start_ts,
                        name=_free_name(platform, f"xc-{pname}-{region}"))
                    matrix.endpoints.append((pname, region))
                    vms[(pname, region)] = vm

            for src in matrix.endpoints:
                for dst in matrix.endpoints:
                    if src != dst:
                        matrix.cells.append(_evaluate_pair(
                            fleet, vms, src, dst, start_ts, samples))
        finally:
            for (pname, _region), vm in vms.items():
                platform = fleet.platform(pname)
                if vm.is_running:
                    platform.terminate_vm(vm.name, end_ts)
    obs.inc("crosscloud.matrix_cells", float(len(matrix.cells)))
    return matrix


def _evaluate_pair(fleet: CloudFleet, vms: Dict[Tuple[str, str], object],
                   src: Tuple[str, str], dst: Tuple[str, str],
                   start_ts: float, samples: int) -> MatrixCell:
    src_platform = fleet.platform(src[0])
    src_vm = vms[src]
    dst_vm = vms[dst]
    dst_pop = dst_vm.nic.host_pop_id
    try:
        fwd = src_platform.route(src_vm, dst_pop, Direction.EGRESS)
        rev = src_platform.route(src_vm, dst_pop, Direction.INGRESS)
    except NoRouteError:
        return MatrixCell(
            src_provider=src[0], src_region=src[1],
            dst_provider=dst[0], dst_region=dst[1],
            rtt_ms=float("inf"), loss_rate=1.0, throughput_mbps=0.0,
            reachable=False)
    rtts: List[float] = []
    tputs: List[float] = []
    losses: List[float] = []
    cap = min(src_vm.machine_type.egress_cap_mbps,
              dst_vm.machine_type.egress_cap_mbps)
    for i in range(samples):
        ts = start_ts + i * MATRIX_SAMPLE_SPACING_H * 3600.0
        metrics = src_platform.path_model.evaluate(fwd, ts, rev)
        rtts.append(metrics.rtt_ms)
        losses.append(metrics.loss_rate)
        tputs.append(min(cap, multiflow_throughput_mbps(
            metrics.rtt_ms, metrics.loss_rate, MATRIX_FLOWS,
            metrics.avail_mbps)))
    return MatrixCell(
        src_provider=src[0], src_region=src[1],
        dst_provider=dst[0], dst_region=dst[1],
        rtt_ms=_median(sorted(rtts)),
        loss_rate=_median(sorted(losses)),
        throughput_mbps=_median(sorted(tputs)))


# ----------------------------------------------------------------------
# provider choice

@dataclass
class ProviderChoice:
    """Which provider reaches which <city, AS> tuples faster.

    Wraps an unchanged :class:`DifferentialSelection` whose synthetic
    region is ``{provider_a}-vs-{provider_b}``; provider A's medians
    occupy the premium slot, provider B's the standard slot, so
    ``PREMIUM_LOWER`` candidates are tuples provider A wins and
    ``STANDARD_LOWER`` ones provider B wins.
    """

    provider_a: str
    provider_b: str
    region_a: str
    region_b: str
    selection: DifferentialSelection

    @property
    def label(self) -> str:
        return f"{self.provider_a}-vs-{self.provider_b}"

    def winner_counts(self) -> Dict[str, int]:
        """candidate counts: provider A wins / provider B wins / tie."""
        counts = {self.provider_a: 0, self.provider_b: 0,
                  "comparable": 0}
        for candidate in self.selection.candidates:
            if candidate.latency_class.value == "premium_lower":
                counts[self.provider_a] += 1
            elif candidate.latency_class.value == "standard_lower":
                counts[self.provider_b] += 1
            else:
                counts["comparable"] += 1
        return counts


def provider_choice(fleet: CloudFleet, catalog: ServerCatalog,
                    prefix2as: Prefix2AS,
                    provider_a: str, provider_b: str,
                    seed: int = 0) -> ProviderChoice:
    """Run the differential-selection path across two providers.

    Both providers are probed by Speedcheckers built from *identical*
    fresh seed trees, so the vantage-point population, probe times,
    and jitter draws line up sample-for-sample: the only difference
    between the A and B medians is the path through each provider's
    WAN.  A's medians relabel into the premium slot of a synthetic
    ``a-vs-b`` region, B's into the standard slot, and the stock
    :meth:`DifferentialSelector.select` does the rest, untouched.
    Each provider is probed from its study region, from the campaign
    start.
    """
    if provider_a == provider_b:
        raise ValidationError(
            "provider choice needs two distinct providers")
    platform_a = fleet.platform(provider_a)
    platform_b = fleet.platform(provider_b)
    region_a = _study_region(platform_a)
    region_b = _study_region(platform_b)
    label = f"{provider_a}-vs-{provider_b}"
    start_ts = float(CAMPAIGN_START)

    with obs.span("crosscloud.provider_choice"):
        medians: List[TupleMedian] = []
        for platform, region, slot in (
                (platform_a, region_a, NetworkTier.PREMIUM),
                (platform_b, region_b, NetworkTier.STANDARD)):
            # A fresh tree per provider, same seed: identical VP sets.
            checker = Speedchecker(platform, seeds=SeedTree(seed))
            tier = platform.provider.measurement_tier
            prefix = _free_study_prefix(platform, f"xc-{label}",
                                        region, tier)
            raw = checker.measure([region], start_ts=start_ts, tiers=(tier,),
                                  name_prefix=prefix)
            medians.extend(TupleMedian(
                asn=m.asn, city_key=m.city_key, region=label,
                tier=slot, median_rtt_ms=m.median_rtt_ms,
                n_samples=m.n_samples) for m in raw)
        selector = DifferentialSelector(catalog, prefix2as)
        selection = selector.select(medians, label,
                                    target_count=PROVIDER_CHOICE_TARGETS)
    return ProviderChoice(provider_a=provider_a, provider_b=provider_b,
                          region_a=region_a, region_b=region_b,
                          selection=selection)
