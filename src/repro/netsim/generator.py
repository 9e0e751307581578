"""Synthetic Internet generator.

Builds a calibrated internetwork around a hyperscale cloud provider:

* a tiered AS population (tier-1 transit, regional transit, access
  ISPs, hosting, education, business networks),
* city-level PoPs with intra-AS backbones,
* Gao-Rexford business relationships and the physical interdomain
  links that realise them (with parallel "LAG member" links, each with
  its own far-side interface IP - the granularity bdrmap reports),
* a cloud AS with a private WAN spanning many metros, settlement-free
  peering with most edge networks (premium tier) and a handful of
  transit providers (standard tier),
* per-link diurnal utilization profiles, with a fixed fraction
  (:data:`CONGESTED_FRACTION`) of access-ISP interconnects
  under-provisioned in the ISP-to-cloud direction (the pandemic
  congestion the paper measures).

The generator is deterministic given a :class:`~repro.rng.SeedTree`.
The world is calibrated once to the paper's bands: every shape and
load value is a module constant here, and :class:`GeneratorConfig`
carries only the AS population counts that the scenario's scale sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigError, TopologyError, ValidationError
from ..geo import City, default_catalog
from ..geo.coords import propagation_delay_ms
from ..rng import SeedTree
from ..simclock import CAMPAIGN_START
from ..units import gbps
from .addressing import Prefix, PrefixAllocator
from .asn import AS, ASRelationship, ASType, RelationshipKind
from .topology import InterdomainLink, LinkKind, PoP, Topology
from .traffic import DiurnalBump, DiurnalProfile, UtilizationModel

__all__ = ["GeneratorConfig", "GeneratedInternet", "TopologyGenerator"]


def _story_profile(kind: str, utc_offset: float,
                   draw: np.random.Generator) -> DiurnalProfile:
    """Named congestion shapes for story networks."""
    if kind == "evening":
        return DiurnalProfile(
            base=float(draw.uniform(0.45, 0.55)),
            bumps=(DiurnalBump(21.0, 4.0, float(draw.uniform(0.55, 0.8))),),
            utc_offset_hours=utc_offset, noise_sigma=0.05)
    if kind == "daytime":
        return DiurnalProfile(
            base=float(draw.uniform(0.45, 0.55)),
            bumps=(DiurnalBump(13.0, 5.5, float(draw.uniform(0.55, 0.75))),
                   DiurnalBump(21.0, 4.0, float(draw.uniform(0.30, 0.45)))),
            utc_offset_hours=utc_offset, noise_sigma=0.05)
    if kind == "allday":
        return DiurnalProfile(
            base=float(draw.uniform(0.62, 0.72)),
            bumps=(DiurnalBump(15.0, 7.0, float(draw.uniform(0.45, 0.6))),),
            utc_offset_hours=utc_offset, noise_sigma=0.05)
    raise ValidationError(f"unknown congestion story kind {kind!r}")

# Name material for synthetic ASes (all fictional).
_ISP_STEMS = [
    "Blue Ridge", "Summit", "Cascade", "Prairie", "Lakeshore", "Granite",
    "Redwood", "Pioneer", "Harbor", "Canyon", "Mesa", "Frontier Line",
    "Valley", "Beacon", "Juniper", "Monarch", "Sierra", "Sandhill",
    "Ridgeline", "Clearwater", "Foothill", "Bayline", "Northwind",
    "Sunset", "Copperfield", "Ironwood", "Palmetto", "Bluestem", "Cypress",
    "Horizon", "Keystone", "Magnolia", "Tidewater", "Wolfpine", "Yucca",
]
_ISP_SUFFIXES = ["Broadband", "Cable", "Communications", "Fiber", "Telecom",
                 "Internet", "Networks", "Wireless", "Connect"]
_HOSTING_STEMS = ["Stack", "Rack", "Node", "Grid", "Core", "Edge", "Vault",
                  "Flux", "Quanta", "Nimbus", "Zephyr", "Apex", "Datum"]
_HOSTING_SUFFIXES = ["Hosting", "Servers", "Datacenters", "Cloud Services",
                     "Colo", "Systems"]
_TIER1_NAMES = [
    "TransGlobal Carrier", "Meridian Backbone", "Atlantic Core Networks",
    "Pacifica Transit", "Continental Exchange", "Polar Route Systems",
    "Equator Communications", "Longhaul International", "Axis Carrier Group",
]
_TRANSIT_SUFFIXES = ["Transit", "Carrier", "Backbone", "NetExchange"]
_EDU_SUFFIXES = ["State University", "Institute of Technology",
                 "Community College Network", "Research Consortium"]
_BIZ_SUFFIXES = ["Logistics", "Financial", "Media Group", "Health Systems",
                 "Retail Corp", "Manufacturing"]


#: The cloud AS the world is built around.
CLOUD_ASN = 15169
CLOUD_NAME = "Macro Cloud Platform"

#: Fraction of small access ISPs / hosting / education networks that
#: peer directly with the cloud (big ISPs always do).  Kept well below
#: 1 so most servers reach the cloud through their upstream's
#: interconnects - which is why the paper found 75-92 % of servers
#: sharing interdomain links.
SMALL_ISP_PEERING_FRACTION = 0.42
HOSTING_PEERING_FRACTION = 0.40
EDUCATION_PEERING_FRACTION = 0.30

#: Parallel link ("LAG member") count ranges per peering city.
BIG_ISP_PARALLEL_LINKS = (4, 9)
SMALL_PARALLEL_LINKS = (4, 10)

#: How many cities a big ISP peers with the cloud in (capped by the
#: ISP's own footprint).
BIG_ISP_PEERING_CITIES = (4, 10)
#: How many metros a small edge network reaches the cloud at.  Kept
#: near the network's own footprint so its announced prefixes exercise
#: every interconnect group (what lets probing find them).
SMALL_PEERING_CITIES = (1, 2)

#: Cloud WAN presence: which world regions get dense vs sparse PoPs.
CLOUD_DENSE_REGIONS = ("us-west", "us-central", "us-east", "eu")
CLOUD_SPARSE_CITIES = (
    "Singapore, SG", "Tokyo, JP", "Sydney, AU", "Sao Paulo, BR",
    "Mumbai, IN", "Hong Kong, HK",
)
N_CLOUD_TRANSITS = 3
#: A grown provider WAN (:meth:`TopologyGenerator.add_cloud_wan`): its
#: backbone mesh degree and its parallel links per transit metro.
WAN_MESH_DEGREE = 3
WAN_TRANSIT_PARALLEL = (2, 4)

# Capacity ranges (Gbps).
CLOUD_BACKBONE_GBPS = (400.0, 1200.0)
TIER1_BACKBONE_GBPS = (200.0, 800.0)
TRANSIT_BACKBONE_GBPS = (40.0, 200.0)
EDGE_BACKBONE_GBPS = (10.0, 60.0)
CLOUD_PEERING_GBPS = (10.0, 100.0)
TRANSIT_INTERCONNECT_GBPS = (10.0, 100.0)

# Load-profile assignment.
#: Probability that an access ISP is under-provisioned toward the
#: cloud: its cloud interconnects (or, without direct peering, its
#: transit uplinks) get over-capacity profiles in the *ISP-to-cloud*
#: direction, where the paper found most congestion.  Hosting,
#: education and business networks draw against a scaled share.
CONGESTED_FRACTION = 0.30
#: The same for the cloud-to-ISP direction of any border link.
REVERSE_CONGESTED_FRACTION = 0.06
#: Share of congested profiles that carry a daytime (telework) bump.
DAYTIME_CONGESTION_SHARE = 0.28
BASE_UTILIZATION_RANGE = (0.15, 0.45)
CONGESTED_PEAK_RANGE = (0.32, 0.72)
QUIET_BUMP_RANGE = (0.10, 0.30)
#: Congestion probability of a transit provider's customer uplinks.
TRANSIT_CONGESTED_FRACTION = 0.12
#: Hourly utilization noise of backbone and border links.
NOISE_SIGMA = 0.035


@dataclass
class GeneratorConfig:
    """AS population counts of the synthetic Internet (what scale sets)."""

    n_tier1: int = 9
    n_transit: int = 48
    n_access_isp: int = 430
    n_big_isp: int = 26            # subset of access ISPs with wide footprints
    n_hosting: int = 215
    n_education: int = 56
    n_business: int = 108

    def __post_init__(self) -> None:
        if self.n_big_isp > self.n_access_isp:
            raise ConfigError("n_big_isp cannot exceed n_access_isp")
        if self.n_tier1 < N_CLOUD_TRANSITS:
            raise ConfigError("need at least N_CLOUD_TRANSITS tier-1 ASes")


@dataclass
class GeneratedInternet:
    """Everything the generator hands back."""

    topology: Topology
    utilization: UtilizationModel
    cloud_asn: int
    tier1_asns: List[int]
    transit_asns: List[int]
    cloud_transit_asns: List[int]
    access_isp_asns: List[int]
    big_isp_asns: List[int]
    hosting_asns: List[int]
    education_asns: List[int]
    business_asns: List[int]
    #: per-AS infrastructure allocator (hosts/servers draw from these)
    infra_allocators: Dict[int, PrefixAllocator]
    #: ASNs flagged as having under-provisioned cloud connectivity
    congested_asns: Set[int]

    @property
    def edge_asns(self) -> List[int]:
        """All ASes that can plausibly host a speed test server."""
        return (self.access_isp_asns + self.hosting_asns
                + self.education_asns + self.business_asns)


class TopologyGenerator:
    """Builds a :class:`GeneratedInternet` from a config and seed tree."""

    def __init__(self, config: Optional[GeneratorConfig] = None,
                 seeds: Optional[SeedTree] = None) -> None:
        self.config = config or GeneratorConfig()
        self.seeds = seeds or SeedTree(0)
        self.cities = default_catalog()
        self._rng = self.seeds.generator("topology-generator")
        self._next_asn = 100
        self._pool = PrefixAllocator(Prefix.parse("10.0.0.0/8"))
        self._wide_pool = PrefixAllocator(Prefix.parse("100.64.0.0/10"))
        self._infra_allocators: Dict[int, PrefixAllocator] = {}
        #: (provider ASN, city key) -> km from the city to the
        #: provider's nearest router PoP (see :meth:`_km_to_provider`).
        self._provider_km: Dict[Tuple[int, str], float] = {}

    # ------------------------------------------------------------------
    # public entry point

    def generate(self) -> GeneratedInternet:
        cfg = self.config
        topo = Topology()
        for city in self.cities:
            topo.add_city(city)
        util = UtilizationModel(self.seeds, origin_ts=CAMPAIGN_START)

        allocators = self._infra_allocators
        announced: Dict[int, List[Prefix]] = {}

        # --- cloud AS -------------------------------------------------
        cloud_cities = self._cloud_cities()
        cloud = AS(asn=CLOUD_ASN, name=CLOUD_NAME,
                   as_type=ASType.CLOUD, country="US")
        topo.add_as(cloud)
        self._allocate_space(cloud, allocators, announced, wide=True)
        self._place_pops(topo, allocators, cloud, cloud_cities)
        self._build_backbone(topo, util, cloud, CLOUD_BACKBONE_GBPS,
                             mesh_degree=4, base_range=(0.20, 0.40))

        # --- tier-1 carriers -------------------------------------------
        tier1s: List[AS] = []
        world = list(self.cities)
        for i in range(cfg.n_tier1):
            name = _TIER1_NAMES[i % len(_TIER1_NAMES)]
            as_obj = AS(asn=self._take_asn(), name=name,
                        as_type=ASType.TIER1, country="US")
            topo.add_as(as_obj)
            self._allocate_space(as_obj, allocators, announced, wide=True)
            n_cities = int(self._rng.integers(18, 30))
            chosen = self._sample_cities(world, n_cities)
            self._place_pops(topo, allocators, as_obj, chosen)
            self._build_backbone(topo, util, as_obj, TIER1_BACKBONE_GBPS,
                                 mesh_degree=3, base_range=(0.15, 0.35))
            tier1s.append(as_obj)

        # Tier-1 full-mesh peering, dense (real tier-1 pairs
        # interconnect at many metros; sparse meshes produce absurd
        # hot-potato detours).
        for i, a in enumerate(tier1s):
            for b in tier1s[i + 1:]:
                self._connect_interdomain(
                    topo, util, a, b, RelationshipKind.PEER_TO_PEER,
                    n_cities=int(self._rng.integers(6, 11)),
                    parallel=(1, 2),
                    capacity_range=TRANSIT_INTERCONNECT_GBPS,
                    congest_prob=0.02)

        # --- regional transit -------------------------------------------
        transits: List[AS] = []
        region_names = ["us-west", "us-central", "us-east", "eu", "apac", "latam"]
        for i in range(cfg.n_transit):
            region = region_names[i % len(region_names)]
            region_cities = [c for c in self.cities if c.region == region]
            stem = self._rng.choice(_ISP_STEMS)
            suffix = self._rng.choice(_TRANSIT_SUFFIXES)
            as_obj = AS(asn=self._take_asn(), name=f"{stem} {suffix}",
                        as_type=ASType.TRANSIT,
                        country=region_cities[0].country if region_cities else "US")
            topo.add_as(as_obj)
            self._allocate_space(as_obj, allocators, announced)
            n_cities = int(self._rng.integers(3, min(9, max(4, len(region_cities)))))
            chosen = self._sample_cities(region_cities, n_cities)
            self._place_pops(topo, allocators, as_obj, chosen)
            self._build_backbone(topo, util, as_obj, TRANSIT_BACKBONE_GBPS,
                                 mesh_degree=2, base_range=(0.20, 0.45))
            transits.append(as_obj)
            # Each transit buys from 2 tier-1s, preferring tier-1s with
            # a presence in its own region (so the interconnects stay
            # local instead of hauling traffic across oceans).
            home_city = topo.cities[topo.pops_of_as(as_obj.asn)[0].city_key]
            t1_weights = np.array([
                1.0 / (300.0 + self._km_to_provider(topo, t, home_city)) ** 2
                for t in tier1s])
            t1_weights = t1_weights / t1_weights.sum()
            for provider in self._rng.choice(len(tier1s), size=2,
                                             replace=False, p=t1_weights):
                self._connect_interdomain(
                    topo, util, as_obj, tier1s[int(provider)],
                    RelationshipKind.CUSTOMER_TO_PROVIDER,
                    n_cities=int(self._rng.integers(2, 4)),
                    parallel=(1, 2),
                    capacity_range=TRANSIT_INTERCONNECT_GBPS,
                    congest_prob=TRANSIT_CONGESTED_FRACTION)

        # --- cloud transit providers (standard tier) --------------------
        cloud_transit_idx = self._rng.choice(
            len(tier1s), size=N_CLOUD_TRANSITS, replace=False)
        cloud_transits = [tier1s[int(i)] for i in cloud_transit_idx]
        for provider in cloud_transits:
            # The cloud provisions its transit gateways generously:
            # standard-tier traffic funnels through them, so they are
            # engineered far below the congestion regime of edge
            # interconnects.
            self._connect_interdomain(
                topo, util, cloud, provider,
                RelationshipKind.CUSTOMER_TO_PROVIDER,
                n_cities=int(self._rng.integers(7, 11)),
                parallel=(2, 4),
                capacity_range=TRANSIT_INTERCONNECT_GBPS,
                congest_prob=0.02,
                subnet_owner_bias=1.0)

        # --- edge networks ----------------------------------------------
        access: List[AS] = []
        big_isps: List[AS] = []
        congested_asns: Set[int] = set()
        congest_draw = self.seeds.generator("congestion-assignment")

        us_cities = [c for c in self.cities if c.country == "US"]
        for i in range(cfg.n_access_isp):
            is_big = i < cfg.n_big_isp
            stem = self._rng.choice(_ISP_STEMS)
            suffix = self._rng.choice(_ISP_SUFFIXES)
            name = f"{stem} {suffix}"
            # ~12% of small access ISPs live outside the U.S. so the
            # differential experiments have global eyeballs to select.
            offshore = (not is_big) and self._rng.random() < 0.12
            pool = [c for c in self.cities if c.country != "US"] if offshore else us_cities
            as_obj = AS(asn=self._take_asn(), name=name,
                        as_type=ASType.ACCESS_ISP,
                        country=pool[0].country if offshore else "US")
            topo.add_as(as_obj)
            self._allocate_space(as_obj, allocators, announced)
            if is_big:
                n_cities = int(self._rng.integers(4, 10))
            else:
                n_cities = int(self._rng.integers(1, 3))
            chosen = self._sample_cities(pool, n_cities)
            as_obj.country = chosen[0].country
            self._place_pops(topo, allocators, as_obj, chosen)
            self._build_backbone(topo, util, as_obj, EDGE_BACKBONE_GBPS,
                                 mesh_degree=2, base_range=(0.25, 0.50))
            is_congested = congest_draw.random() < CONGESTED_FRACTION
            if is_congested:
                congested_asns.add(as_obj.asn)
            peers_cloud = is_big or (
                self._rng.random() < SMALL_ISP_PEERING_FRACTION)
            # A congested ISP without direct peering expresses its
            # congestion on the transit uplinks its cloud traffic rides.
            self._buy_transit(topo, util, as_obj, transits, tier1s,
                              n_providers=2 if is_big else
                              int(self._rng.integers(1, 3)),
                              congested_upstream=is_congested
                              and not peers_cloud,
                              congest_draw=congest_draw)
            if peers_cloud:
                self._peer_with_cloud(topo, util, cloud, as_obj,
                                      is_big=is_big,
                                      congested=is_congested,
                                      congest_draw=congest_draw)
            access.append(as_obj)
            if is_big:
                big_isps.append(as_obj)

        hosting = self._make_edge_population(
            topo, util, allocators, announced, transits, tier1s, cloud,
            congested_asns, congest_draw,
            count=cfg.n_hosting, as_type=ASType.HOSTING,
            peering_fraction=HOSTING_PEERING_FRACTION,
            congest_scale=0.35)
        education = self._make_edge_population(
            topo, util, allocators, announced, transits, tier1s, cloud,
            congested_asns, congest_draw,
            count=cfg.n_education, as_type=ASType.EDUCATION,
            peering_fraction=EDUCATION_PEERING_FRACTION,
            congest_scale=0.5)
        business = self._make_edge_population(
            topo, util, allocators, announced, transits, tier1s, cloud,
            congested_asns, congest_draw,
            count=cfg.n_business, as_type=ASType.BUSINESS,
            peering_fraction=0.25, congest_scale=0.5)

        topo.validate()
        return GeneratedInternet(
            topology=topo,
            utilization=util,
            cloud_asn=cloud.asn,
            tier1_asns=[a.asn for a in tier1s],
            transit_asns=[a.asn for a in transits],
            cloud_transit_asns=[a.asn for a in cloud_transits],
            access_isp_asns=[a.asn for a in access],
            big_isp_asns=[a.asn for a in big_isps],
            hosting_asns=[a.asn for a in hosting],
            education_asns=[a.asn for a in education],
            business_asns=[a.asn for a in business],
            infra_allocators=allocators,
            congested_asns=congested_asns,
        )

    # ------------------------------------------------------------------
    # building blocks

    def _take_asn(self) -> int:
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def _cloud_cities(self) -> List[City]:
        dense = [c for c in self.cities if c.region in CLOUD_DENSE_REGIONS]
        sparse = [self.cities.get(key) for key in CLOUD_SPARSE_CITIES
                  if key in self.cities]
        return dense + sparse

    def _sample_cities(self, pool: Sequence[City], k: int) -> List[City]:
        """Weighted sample without replacement, capped at the pool size."""
        pool = list(pool)
        k = min(k, len(pool))
        weights = np.array([c.population_weight for c in pool], dtype=float)
        weights /= weights.sum()
        idx = self._rng.choice(len(pool), size=k, replace=False, p=weights)
        return [pool[int(i)] for i in idx]

    def _allocate_space(self, as_obj: AS,
                        allocators: Dict[int, PrefixAllocator],
                        announced: Dict[int, List[Prefix]],
                        wide: bool = False) -> None:
        """Give the AS an address block and an infrastructure allocator."""
        pool = self._wide_pool if wide else self._pool
        block = pool.allocate(14 if wide else 20)
        subnets = list(block.subnets(block.length + 2))
        infra = subnets[0]
        allocators[as_obj.asn] = PrefixAllocator(infra)
        announced[as_obj.asn] = []
        as_obj.prefixes.append(block)

    def _announce_pop_prefix(self, as_obj: AS) -> Prefix:
        """Carve a /24 the AS announces for one PoP's customer space."""
        block = as_obj.prefixes[0]
        infra_size = block.size // 4
        announced_base = block.network + infra_size
        existing = len(as_obj.prefixes) - 1
        net = announced_base + existing * 256
        if net + 255 > block.last:
            raise TopologyError(
                f"AS{as_obj.asn} has no room for another /24")
        prefix = Prefix(net, 24)
        as_obj.prefixes.append(prefix)
        return prefix

    def _place_pops(self, topo: Topology,
                    allocators: Dict[int, PrefixAllocator],
                    as_obj: AS, cities: Sequence[City]) -> List[PoP]:
        pops = []
        seen: Set[str] = set()
        unique_cities = []
        for city in cities:
            if city.key not in seen:
                seen.add(city.key)
                unique_cities.append(city)
        if not unique_cities:
            return pops
        # Announce several /24s per PoP (real networks originate many
        # prefixes per site); bounded by the AS block's announced slots.
        block = as_obj.prefixes[0]
        slots = (block.size - block.size // 4) // 256
        per_pop = max(1, min(3, slots // len(unique_cities)))
        for city in unique_cities:
            loopback = allocators[as_obj.asn].allocate_host()
            pop = topo.add_pop(as_obj.asn, city.key, loopback)
            pops.append(pop)
            for _ in range(per_pop):
                prefix = self._announce_pop_prefix(as_obj)
                topo.register_announced_prefix(prefix, pop.pop_id)
        # The covering block routes to the first PoP by default.
        topo.register_announced_prefix(block, pops[0].pop_id)
        return pops

    def _build_backbone(self, topo: Topology, util: UtilizationModel,
                        as_obj: AS, capacity_gbps: Tuple[float, float],
                        mesh_degree: int,
                        base_range: Tuple[float, float]) -> None:
        """Connect an AS's PoPs: greedy nearest-neighbour tree + chords."""
        pops = [p for p in topo.pops_of_as(as_obj.asn) if not p.is_host]
        if len(pops) < 2:
            return
        edges: Set[Tuple[int, int]] = set()

        def link_pops(a: PoP, b: PoP) -> None:
            key = (min(a.pop_id, b.pop_id), max(a.pop_id, b.pop_id))
            if key in edges:
                return
            edges.add(key)
            city_a = topo.cities[a.city_key]
            city_b = topo.cities[b.city_key]
            delay = propagation_delay_ms(city_a.point, city_b.point)
            capacity = gbps(self._rng.uniform(*capacity_gbps))
            link = topo.add_link(LinkKind.BACKBONE, a.pop_id, b.pop_id,
                                 capacity, delay)
            base = self._rng.uniform(*base_range)
            offset = (city_a.utc_offset_hours + city_b.utc_offset_hours) / 2.0
            profile = DiurnalProfile.quiet(base=base, utc_offset_hours=offset,
                                           noise_sigma=NOISE_SIGMA)
            util.set_profile_both(link.link_id, profile)

        # Prim's algorithm: each remaining PoP keeps its nearest
        # connected PoP (strict < keeps the earliest-connected one on
        # ties), and the first remaining PoP with the strictly smallest
        # distance joins next.  That is the pair an all-pairs scan in
        # (remaining, connected) order picks, so the link order and
        # every RNG draw match it, for n(n-1)/2 distances instead of
        # O(n^3).
        points = [topo.cities[p.city_key].point for p in pops]
        nearest = [0] * len(pops)
        nearest_km = [0.0] + [points[r].distance_km(points[0])
                              for r in range(1, len(pops))]
        remaining = list(range(1, len(pops)))
        while remaining:
            joined = min(remaining, key=nearest_km.__getitem__)
            remaining.remove(joined)
            link_pops(pops[joined], pops[nearest[joined]])
            for r in remaining:
                d = points[r].distance_km(points[joined])
                if d < nearest_km[r]:
                    nearest_km[r] = d
                    nearest[r] = joined

        # chords for redundancy / shorter intra-AS paths
        if mesh_degree > 1 and len(pops) > 3:
            extra = min(len(pops) * (mesh_degree - 1) // 2,
                        len(pops) * (len(pops) - 1) // 2 - len(edges))
            for _ in range(extra):
                i, j = self._rng.choice(len(pops), size=2, replace=False)
                link_pops(pops[int(i)], pops[int(j)])

    def _shared_or_nearest_cities(self, topo: Topology, a: AS, b: AS,
                                  k: int) -> List[Tuple[PoP, PoP]]:
        """Pick up to *k* (PoP_a, PoP_b) pairs to interconnect at.

        Prefers cities where both ASes are present; falls back to the
        geographically closest PoP pairs.
        """
        pops_a = [p for p in topo.pops_of_as(a.asn) if not p.is_host]
        pops_b = [p for p in topo.pops_of_as(b.asn) if not p.is_host]
        if not pops_a or not pops_b:
            raise TopologyError(
                f"cannot interconnect AS{a.asn} and AS{b.asn}: missing PoPs")
        shared = []
        b_by_city = {p.city_key: p for p in pops_b}
        for pa in pops_a:
            pb = b_by_city.get(pa.city_key)
            if pb is not None:
                shared.append((pa, pb))
        if len(shared) >= k:
            idx = self._rng.choice(len(shared), size=k, replace=False)
            return [shared[int(i)] for i in idx]
        pairs = list(shared)
        used_a = {pa.pop_id for pa, _ in pairs}
        scored = []
        for pa in pops_a:
            if pa.pop_id in used_a:
                continue
            point_a = topo.cities[pa.city_key].point
            km = [point_a.distance_km(topo.cities[pb.city_key].point)
                  for pb in pops_b]
            d = min(km)
            scored.append((d, pa, pops_b[km.index(d)]))
        scored.sort(key=lambda t: (t[0], t[1].pop_id))
        for _d, pa, pb in scored[:max(0, k - len(pairs))]:
            pairs.append((pa, pb))
        return pairs

    def _connect_interdomain(self, topo: Topology, util: UtilizationModel,
                             a: AS, b: AS, kind: RelationshipKind,
                             n_cities: int, parallel: Tuple[int, int],
                             capacity_range: Tuple[float, float],
                             congest_prob: float,
                             congested_upstream: bool = False,
                             congest_draw: Optional[np.random.Generator] = None,
                             subnet_owner_bias: float = 0.75,
                             forced_pairs: Optional[
                                 List[Tuple[PoP, PoP]]] = None,
                             congested_direction: int = 1,
                             ) -> List[InterdomainLink]:
        """Create relationship + physical border links between two ASes.

        Direction convention: links are created with ``pop_a`` on *a*'s
        side, so direction 0 is a->b and direction 1 is b->a.  For cloud
        peering *a* is the cloud, making direction 1 the ISP-to-cloud
        (ingress) direction where congestion is injected.

        *subnet_owner_bias* is the probability the link /30 is numbered
        from *a*'s address space.  The cloud numbers its PNIs from its
        own space (bias 1.0), which is exactly the ambiguity bdrmap's
        alias heuristics must untangle; other borders keep a mix.
        """
        draw = congest_draw if congest_draw is not None else self._rng
        topo.add_relationship(ASRelationship(a.asn, b.asn, kind))
        if forced_pairs is not None:
            pairs = list(forced_pairs)
        else:
            pairs = self._shared_or_nearest_cities(topo, a, b, n_cities)
        records: List[InterdomainLink] = []
        for pa, pb in pairs:
            n_parallel = int(self._rng.integers(parallel[0], parallel[1] + 1))
            city_a = topo.cities[pa.city_key]
            city_b = topo.cities[pb.city_key]
            delay = propagation_delay_ms(city_a.point, city_b.point)
            subnet_owner = a if self._rng.random() < subnet_owner_bias else b
            city_congested = (congested_upstream
                              and draw.random() < 0.85)
            for _ in range(n_parallel):
                alloc = self._infra_alloc(subnet_owner)
                net = alloc.allocate(30)
                hosts = list(net.hosts())
                ip_a, ip_b = hosts[0], hosts[1]
                capacity = gbps(self._rng.uniform(*capacity_range))
                link = topo.add_link(LinkKind.INTERDOMAIN, pa.pop_id,
                                     pb.pop_id, capacity, max(0.1, delay),
                                     ip_a=ip_a, ip_b=ip_b,
                                     address_asn=subnet_owner.asn)
                record = InterdomainLink(
                    link_id=link.link_id, near_asn=a.asn, far_asn=b.asn,
                    city_key=pa.city_key, near_ip=ip_a, far_ip=ip_b)
                topo.register_interdomain(record)
                records.append(record)
                self._assign_border_profiles(
                    util, link.link_id, city_b.utc_offset_hours,
                    upstream_congested=city_congested or (
                        draw.random() < congest_prob),
                    downstream_congested=draw.random()
                    < REVERSE_CONGESTED_FRACTION,
                    draw=draw,
                    upstream_direction=congested_direction)
        return records

    def _infra_alloc(self, as_obj: AS) -> PrefixAllocator:
        alloc = self._infra_allocators.get(as_obj.asn)
        if alloc is None:
            raise TopologyError(f"AS{as_obj.asn} has no allocator")
        return alloc

    def _assign_border_profiles(self, util: UtilizationModel, link_id: int,
                                utc_offset: float,
                                upstream_congested: bool,
                                downstream_congested: bool,
                                draw: np.random.Generator,
                                upstream_direction: int = 1) -> None:
        """Set load profiles for both directions of a border link.

        *upstream_direction* is the direction index that carries
        edge-to-cloud traffic: 1 for cloud-peering links (the cloud is
        ``pop_a``), 0 for customer-to-provider transit uplinks (the
        customer is ``pop_a``).
        """
        base = draw.uniform(*BASE_UTILIZATION_RANGE)
        quiet_amp = draw.uniform(*QUIET_BUMP_RANGE)

        def quiet_profile() -> DiurnalProfile:
            return DiurnalProfile(
                base=base,
                bumps=(DiurnalBump(21.0, 5.0, quiet_amp),),
                utc_offset_hours=utc_offset,
                noise_sigma=NOISE_SIGMA)

        def congested_profile() -> DiurnalProfile:
            amp = draw.uniform(*CONGESTED_PEAK_RANGE)
            daytime = draw.random() < DAYTIME_CONGESTION_SHARE
            if daytime:
                bumps = (DiurnalBump(13.5, 5.0, amp),
                         DiurnalBump(21.0, 3.5, amp * 0.6))
            else:
                bumps = (DiurnalBump(21.0, 3.5, amp),)
            return DiurnalProfile(
                base=draw.uniform(0.40, 0.55),
                bumps=bumps,
                utc_offset_hours=utc_offset,
                noise_sigma=NOISE_SIGMA * 1.3)

        downstream_direction = upstream_direction ^ 1
        util.set_profile(link_id, upstream_direction,
                         congested_profile() if upstream_congested
                         else quiet_profile())
        util.set_profile(link_id, downstream_direction,
                         congested_profile() if downstream_congested
                         else quiet_profile())

    def add_story_isp(self, net: GeneratedInternet, name: str,
                      home_city_keys: Sequence[str],
                      peering_city_keys: Optional[Sequence[str]] = None,
                      congestion: Optional[str] = None,
                      parallel: Tuple[int, int] = (2, 4)) -> AS:
        """Add a purpose-built access ISP after generation.

        Scenario builders use this for the paper's named networks: the
        ISP gets PoPs in *home_city_keys*, transit from the nearest
        regional transits, and cloud peering at *peering_city_keys*
        (cloud-side cities; defaults to the home cities).  *congestion*
        is ``None``, ``"evening"``, ``"daytime"``, or ``"allday"`` and
        shapes the ISP-to-cloud direction of every peering link.
        """
        topo = net.topology
        util = net.utilization
        cloud = topo.as_of(net.cloud_asn)
        home = [self.cities.get(k) for k in home_city_keys]
        as_obj = AS(asn=self._take_asn(), name=name,
                    as_type=ASType.ACCESS_ISP, country=home[0].country)
        topo.add_as(as_obj)
        self._allocate_space(as_obj, net.infra_allocators, {})
        self._place_pops(topo, net.infra_allocators, as_obj, home)
        self._build_backbone(topo, util, as_obj, EDGE_BACKBONE_GBPS,
                             mesh_degree=2, base_range=(0.25, 0.50))
        transits = [topo.as_of(asn) for asn in net.transit_asns]
        tier1s = [topo.as_of(asn) for asn in net.tier1_asns]
        self._buy_transit(topo, util, as_obj, transits, tier1s,
                          n_providers=2)

        peer_cities = list(peering_city_keys or home_city_keys)
        isp_pops = [p for p in topo.pops_of_as(as_obj.asn) if not p.is_host]
        forced_pairs = []
        for key in peer_cities:
            cloud_pop = topo.pop_of_as_in_city(net.cloud_asn, key)
            if cloud_pop is None:
                raise TopologyError(
                    f"cloud has no PoP in {key!r} to peer at")
            nearest_isp = min(isp_pops, key=lambda p: topo.cities[
                p.city_key].point.distance_km(topo.cities[key].point))
            forced_pairs.append((cloud_pop, nearest_isp))
        records = self._connect_interdomain(
            topo, util, cloud, as_obj, RelationshipKind.PEER_TO_PEER,
            n_cities=len(forced_pairs), parallel=parallel,
            capacity_range=CLOUD_PEERING_GBPS,
            congest_prob=0.0, subnet_owner_bias=1.0,
            forced_pairs=forced_pairs)

        if congestion is not None:
            net.congested_asns.add(as_obj.asn)
            draw = self.seeds.generator(f"story-{name}")
            for record in records:
                offset = self.cities.get(
                    topo.pop(topo.link(record.link_id).pop_b)
                    .city_key).utc_offset_hours
                util.set_profile(record.link_id, 1, _story_profile(
                    congestion, offset, draw))
        net.access_isp_asns.append(as_obj.asn)
        return as_obj

    def add_cloud_wan(self, net: GeneratedInternet, name: str,
                      city_keys: Sequence[str],
                      asn: Optional[int] = None,
                      backbone_gbps: Optional[Tuple[float, float]] = None,
                      n_transits: int = 2) -> AS:
        """Grow another cloud provider's WAN after generation.

        Mirrors the native cloud's construction in :meth:`generate`: a
        CLOUD-type AS with wide address space, PoPs in *city_keys*, a
        meshed backbone (skipped for a single-DC provider with one
        city), and transit from *n_transits* tier-1s with generously
        provisioned gateways (``congest_prob=0.02``) numbered from the
        cloud's own space (``subnet_owner_bias=1.0``), exactly like the
        native cloud's standard-tier transit.  No peering fabric is
        built - providers that sell a peering-backed tier model it via
        their tier table, not extra edges.

        The new AS joins no edge-AS list, so server catalogs and
        vantage-point populations are unaffected; a campaign that never
        routes through the WAN produces the exact same dataset with or
        without it.  Returns the new AS; callers hand ``as_obj.asn`` to
        :class:`~repro.cloud.api.CloudPlatform` as ``cloud_asn``.
        """
        topo = net.topology
        util = net.utilization
        if asn is not None and asn in topo.ases:
            raise TopologyError(
                f"ASN {asn} is already present in this topology")
        cities = [self.cities.get(k) for k in city_keys]
        if not cities:
            raise TopologyError(f"WAN {name!r} needs at least one city")
        as_obj = AS(asn=asn if asn is not None else self._take_asn(),
                    name=name, as_type=ASType.CLOUD,
                    country=cities[0].country)
        topo.add_as(as_obj)
        self._allocate_space(as_obj, net.infra_allocators, {}, wide=True)
        self._place_pops(topo, net.infra_allocators, as_obj, cities)
        if len(cities) > 1:
            self._build_backbone(
                topo, util, as_obj,
                backbone_gbps or CLOUD_BACKBONE_GBPS,
                mesh_degree=WAN_MESH_DEGREE, base_range=(0.20, 0.40))
        tier1s = [topo.as_of(t1_asn) for t1_asn in net.tier1_asns]
        if not tier1s:
            raise TopologyError("no tier-1 carriers to buy transit from")
        n_providers = max(1, min(n_transits, len(tier1s)))
        provider_idx = self._rng.choice(len(tier1s), size=n_providers,
                                        replace=False)
        for idx in provider_idx:
            self._connect_interdomain(
                topo, util, as_obj, tier1s[int(idx)],
                RelationshipKind.CUSTOMER_TO_PROVIDER,
                n_cities=max(1, min(len(cities),
                                    int(self._rng.integers(2, 6)))),
                parallel=WAN_TRANSIT_PARALLEL,
                capacity_range=TRANSIT_INTERCONNECT_GBPS,
                congest_prob=0.02,
                subnet_owner_bias=1.0)
        return as_obj

    def _buy_transit(self, topo: Topology, util: UtilizationModel,
                     customer: AS, transits: List[AS], tier1s: List[AS],
                     n_providers: int,
                     congested_upstream: bool = False,
                     congest_draw: Optional[np.random.Generator] = None,
                     ) -> None:
        """Connect an edge AS to its transit providers.

        *congested_upstream* marks the customer's uplinks (the
        customer-to-provider direction, which edge-to-cloud traffic
        rides) as under-provisioned - how a congested ISP without
        direct cloud peering expresses its congestion.
        """
        home_city = topo.cities[topo.pops_of_as(customer.asn)[0].city_key]

        def distance_to(provider: AS) -> float:
            return self._km_to_provider(topo, provider, home_city)

        ranked = sorted(transits, key=distance_to)[:6]
        if not ranked:
            ranked = tier1s
        # Nearby providers only: a Frankfurt eyeball does not buy
        # transit hauled in from Melbourne.  Keep providers within
        # 4000 km when any exist; weight the remainder by proximity.
        nearby = [p for p in ranked if distance_to(p) <= 4000.0]
        if nearby:
            ranked = nearby
        distances = np.array([distance_to(p) for p in ranked])
        weights = 1.0 / (300.0 + distances) ** 2
        weights = weights / weights.sum()
        chosen_idx = self._rng.choice(len(ranked),
                                      size=min(n_providers, len(ranked)),
                                      replace=False, p=weights)
        for i in chosen_idx:
            provider = ranked[int(i)]
            self._connect_interdomain(
                topo, util, customer, provider,
                RelationshipKind.CUSTOMER_TO_PROVIDER,
                n_cities=1, parallel=(1, 2),
                capacity_range=TRANSIT_INTERCONNECT_GBPS,
                congest_prob=TRANSIT_CONGESTED_FRACTION * 0.5,
                congested_upstream=congested_upstream,
                congest_draw=congest_draw,
                congested_direction=0)

    def _km_to_provider(self, topo: Topology, provider: AS,
                        city: City) -> float:
        """Great-circle km from *city* to *provider*'s nearest router PoP.

        Memoized per (provider ASN, city key) for the generator's
        lifetime: an AS gains router PoPs only when it is placed, which
        is before any AS buys transit from it.
        """
        key = (provider.asn, city.key)
        km = self._provider_km.get(key)
        if km is None:
            km = min(topo.cities[p.city_key].point.distance_km(city.point)
                     for p in topo.pops_of_as(provider.asn) if not p.is_host)
            self._provider_km[key] = km
        return km

    def _peer_with_cloud(self, topo: Topology, util: UtilizationModel,
                         cloud: AS, edge: AS, is_big: bool,
                         congested: bool,
                         congest_draw: np.random.Generator) -> None:
        if is_big:
            lo, hi = BIG_ISP_PEERING_CITIES
            n_cities = int(self._rng.integers(lo, hi + 1))
            parallel = BIG_ISP_PARALLEL_LINKS
        else:
            lo, hi = SMALL_PEERING_CITIES
            n_cities = int(self._rng.integers(lo, hi + 1))
            parallel = SMALL_PARALLEL_LINKS
        self._connect_interdomain(
            topo, util, cloud, edge, RelationshipKind.PEER_TO_PEER,
            n_cities=n_cities, parallel=parallel,
            capacity_range=CLOUD_PEERING_GBPS,
            congest_prob=0.0,
            congested_upstream=congested,
            congest_draw=congest_draw,
            subnet_owner_bias=1.0)

    def _make_edge_population(self, topo: Topology, util: UtilizationModel,
                              allocators: Dict[int, PrefixAllocator],
                              announced: Dict[int, List[Prefix]],
                              transits: List[AS], tier1s: List[AS],
                              cloud: AS, congested_asns: Set[int],
                              congest_draw: np.random.Generator,
                              count: int, as_type: ASType,
                              peering_fraction: float,
                              congest_scale: float) -> List[AS]:
        """Create hosting/education/business ASes."""
        out: List[AS] = []
        major = [c for c in self.cities if c.population_weight >= 1.5]
        for i in range(count):
            if as_type is ASType.HOSTING:
                stem = self._rng.choice(_HOSTING_STEMS)
                suffix = self._rng.choice(_HOSTING_SUFFIXES)
                name = f"{stem} {suffix}"
                pool = major
                n_cities = int(self._rng.integers(1, 4))
            elif as_type is ASType.EDUCATION:
                city = self._sample_cities([c for c in self.cities
                                            if c.country == "US"], 1)[0]
                name = f"{city.name} {self._rng.choice(_EDU_SUFFIXES)}"
                pool = [city]
                n_cities = 1
            else:
                stem = self._rng.choice(_ISP_STEMS)
                name = f"{stem} {self._rng.choice(_BIZ_SUFFIXES)}"
                pool = [c for c in self.cities if c.country == "US"]
                n_cities = 1
            as_obj = AS(asn=self._take_asn(), name=name, as_type=as_type)
            topo.add_as(as_obj)
            self._allocate_space(as_obj, allocators, announced)
            chosen = self._sample_cities(pool, n_cities)
            as_obj.country = chosen[0].country
            self._place_pops(topo, allocators, as_obj, chosen)
            self._build_backbone(topo, util, as_obj, EDGE_BACKBONE_GBPS,
                                 mesh_degree=1, base_range=(0.15, 0.40))
            is_congested = congest_draw.random() < (
                CONGESTED_FRACTION * congest_scale)
            if is_congested:
                congested_asns.add(as_obj.asn)
            peers_cloud = self._rng.random() < peering_fraction
            self._buy_transit(topo, util, as_obj, transits, tier1s,
                              n_providers=int(self._rng.integers(1, 3)),
                              congested_upstream=is_congested
                              and not peers_cloud,
                              congest_draw=congest_draw)
            if peers_cloud:
                self._peer_with_cloud(topo, util, cloud, as_obj,
                                      is_big=False,
                                      congested=is_congested,
                                      congest_draw=congest_draw)
            out.append(as_obj)
        return out

