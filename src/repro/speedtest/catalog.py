"""Server catalog generation and the platform "crawler" view.

Deploys speed test servers across the generated Internet's edge
networks: access ISPs host most servers (they deploy them close to
users to validate speeds), with hosting companies, universities, and
businesses hosting the rest.  M-Lab pods sit in well-connected hosting
metros; the Comcast platform concentrates in big-ISP footprints; Ookla
is everywhere.

Each server is attached to the topology as a host with >= 1 Gbps of
access capacity, and its access link gets a moderate diurnal load
profile (the server is shared with other testers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..netsim.asn import ASType
from ..netsim.generator import GeneratedInternet
from ..netsim.traffic import DiurnalBump, DiurnalProfile
from ..rng import SeedTree
from ..units import gbps
from .server import Platform, ServerRecord, SpeedTestServer

__all__ = ["CatalogConfig", "ServerCatalog", "build_catalog"]


#: Platform mix (Ookla dominates real deployments).
PLATFORM_SHARES = {
    Platform.OOKLA: 0.72,
    Platform.MLAB: 0.17,
    Platform.COMCAST: 0.11,
}
#: Probability weights of the hosting AS type for a new server.
AS_TYPE_WEIGHTS = {
    ASType.ACCESS_ISP: 0.64,
    ASType.HOSTING: 0.22,
    ASType.EDUCATION: 0.08,
    ASType.BUSINESS: 0.06,
}
#: Access capacity choices in Gbps and their weights ("at least
#: 1 Gbps for Ookla").
CAPACITY_GBPS_CHOICES = (1.0, 2.0, 10.0)
CAPACITY_WEIGHTS = (0.62, 0.23, 0.15)


@dataclass
class CatalogConfig:
    """Server counts of the worldwide deployment (what scale sets)."""

    #: Target number of U.S. servers (the paper crawled ~1,330).
    n_us_servers: int = 1330
    #: Target number of non-U.S. servers (kept small; only the
    #: differential experiments need them).
    n_global_servers: int = 260


class ServerCatalog:
    """All deployed servers, with platform- and country-level views."""

    def __init__(self, servers: Sequence[SpeedTestServer]) -> None:
        self._servers: List[SpeedTestServer] = list(servers)
        self._by_id: Dict[str, SpeedTestServer] = {}
        for server in self._servers:
            if server.server_id in self._by_id:
                raise ConfigError(f"duplicate server id {server.server_id}")
            self._by_id[server.server_id] = server

    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self):
        return iter(self._servers)

    def get(self, server_id: str) -> SpeedTestServer:
        try:
            return self._by_id[server_id]
        except KeyError:
            raise ConfigError(f"unknown server {server_id!r}") from None

    def servers(self, platform: Optional[Platform] = None,
                country: Optional[str] = None) -> List[SpeedTestServer]:
        return [s for s in self._servers
                if (platform is None or s.platform is platform)
                and (country is None or s.country == country)]

    def crawl(self, platform: Platform) -> List[ServerRecord]:
        """What crawling one platform's public server list returns."""
        return [s.record() for s in self._servers if s.platform is platform]


def build_catalog(internet: GeneratedInternet,
                  config: Optional[CatalogConfig] = None,
                  seeds: Optional[SeedTree] = None,
                  ensure_asns: Optional[Dict[int, int]] = None
                  ) -> ServerCatalog:
    """Deploy servers into *internet* and return the catalog.

    *ensure_asns* maps ASN -> minimum server count; used by scenario
    builders that need specific networks (the paper's named ISPs) to
    host test servers.
    """
    cfg = config or CatalogConfig()
    seeds = seeds or SeedTree(0)
    rng = seeds.generator("server-catalog")
    topo = internet.topology

    by_type: Dict[ASType, List[int]] = {
        ASType.ACCESS_ISP: list(internet.access_isp_asns),
        ASType.HOSTING: list(internet.hosting_asns),
        ASType.EDUCATION: list(internet.education_asns),
        ASType.BUSINESS: list(internet.business_asns),
    }

    types = list(AS_TYPE_WEIGHTS.keys())
    type_weights = np.array([AS_TYPE_WEIGHTS[t] for t in types])
    type_weights = type_weights / type_weights.sum()
    #: (AS type, in the U.S.) -> candidate ASNs; deploying a server
    #: changes no AS's country, so each list is computed once.
    candidates_of: Dict[Tuple[ASType, bool], List[int]] = {
        (as_type, country_us): [
            asn for asn in by_type[as_type]
            if (topo.as_of(asn).country == "US") == country_us]
        for as_type in types for country_us in (True, False)}

    def pick_as(country_us: bool) -> Optional[int]:
        """Sample a hosting AS of the configured type mix and country."""
        for _attempt in range(24):
            as_type = types[int(rng.choice(len(types), p=type_weights))]
            candidates = candidates_of[(as_type, country_us)]
            if candidates:
                return int(candidates[int(rng.integers(len(candidates)))])
        return None

    servers: List[SpeedTestServer] = []
    counters: Dict[Platform, int] = {p: 0 for p in Platform}
    platforms = list(PLATFORM_SHARES.keys())
    platform_weights = np.array([PLATFORM_SHARES[p] for p in platforms])
    platform_weights = platform_weights / platform_weights.sum()
    capacity_weights = np.array(CAPACITY_WEIGHTS, dtype=float)
    capacity_weights = capacity_weights / capacity_weights.sum()

    def deploy(asn: int) -> SpeedTestServer:
        """Attach one new server host inside AS *asn*."""
        as_obj = topo.as_of(asn)
        router_pops = [p for p in topo.pops_of_as(asn) if not p.is_host]
        pop = router_pops[int(rng.integers(len(router_pops)))]
        alloc = internet.infra_allocators[asn]
        ip = alloc.allocate_host()
        capacity = gbps(float(rng.choice(
            CAPACITY_GBPS_CHOICES, p=capacity_weights)))
        host = topo.add_host(asn, pop.pop_id, ip,
                             capacity_mbps=capacity, delay_ms=0.15)
        access_link = topo.links_of_pop(host.pop_id)[0]
        platform = platforms[int(rng.choice(len(platforms),
                                            p=platform_weights))]
        counters[platform] += 1
        city = topo.cities[pop.city_key]
        # The server shares its access pipe with other testers and
        # services: moderate base load plus an evening bump.
        profile = DiurnalProfile(
            base=float(rng.uniform(0.12, 0.40)),
            bumps=(DiurnalBump(20.0, 5.0, float(rng.uniform(0.10, 0.35))),),
            utc_offset_hours=city.utc_offset_hours,
            noise_sigma=0.04,
        )
        internet.utilization.set_profile_both(access_link.link_id, profile)
        server = SpeedTestServer(
            server_id=f"{platform.value}-{counters[platform]:05d}",
            platform=platform,
            sponsor=as_obj.name,
            ip=ip,
            asn=asn,
            city_key=pop.city_key,
            country=city.country,
            host_pop_id=host.pop_id,
            access_link_id=access_link.link_id,
            capacity_mbps=capacity,
            lat=city.point.lat,
            lon=city.point.lon,
            service_cap_mbps=min(capacity, float(rng.uniform(230.0, 640.0))),
        )
        servers.append(server)
        return server

    for is_us, count in ((True, cfg.n_us_servers),
                         (False, cfg.n_global_servers)):
        for _ in range(count):
            asn = pick_as(is_us)
            if asn is not None:
                deploy(asn)
    for asn, minimum in sorted((ensure_asns or {}).items()):
        have = sum(1 for s in servers if s.asn == asn)
        for _ in range(max(0, minimum - have)):
            deploy(asn)
    return ServerCatalog(servers)
