"""Shared test fixtures.

Two worlds are available:

* ``mini_world`` - a five-AS topology built by hand with exact,
  known-by-construction routes and link placements; routing, tier, and
  tool tests assert against it precisely.
* ``small_scenario`` - a generated scenario at a small scale (shared
  per session); integration tests exercise the real pipeline on it.

On top of ``small_scenario``, the builder fixtures ``us_server_ids``,
``deploy_us_plan``, and ``run_us_campaign`` centralise the
deploy-N-US-servers-and-run-a-campaign boilerplate that several
integration modules used to copy.

``repro_subclasses`` finds every subclass of a base class defined
anywhere in the package; the registry tests check the event, observer
and alert-rule taxonomies with it.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.geo import City, GeoPoint
from repro.geo.coords import propagation_delay_ms
from repro.netsim.addressing import Prefix, parse_ip
from repro.netsim.asn import AS, ASRelationship, ASType, RelationshipKind
from repro.netsim.topology import InterdomainLink, LinkKind, Topology
from repro.rng import SeedTree
from repro.simclock import CAMPAIGN_START
from repro.units import gbps


def _city(name, cc, region, lat, lon, off):
    return City(name=name, country=cc, region=region,
                point=GeoPoint(lat, lon), utc_offset_hours=off)


MINI_CITIES = {
    "west": _city("Westville", "US", "us-west", 45.0, -122.0, -8),
    "central": _city("Midtown", "US", "us-central", 41.0, -95.0, -6),
    "east": _city("Eastburg", "US", "us-east", 40.0, -75.0, -5),
    "south": _city("Southport", "US", "us-east", 33.0, -84.0, -5),
}


@dataclass
class MiniWorld:
    """Hand-built five-AS internetwork with known structure."""

    topology: Topology
    cloud_asn: int = 100
    tier1_asn: int = 200
    transit_asn: int = 300
    isp_a_asn: int = 400     # peers with the cloud at west + east
    isp_b_asn: int = 500     # reaches the cloud only via transit
    pops: Dict[str, int] = None
    links: Dict[str, int] = None


def build_mini_world() -> MiniWorld:
    topo = Topology()
    for city in MINI_CITIES.values():
        topo.add_city(city)

    def mk_as(asn, name, as_type, block):
        as_obj = AS(asn=asn, name=name, as_type=as_type)
        as_obj.prefixes.append(Prefix.parse(block))
        return topo.add_as(as_obj)

    mk_as(100, "MiniCloud", ASType.CLOUD, "10.100.0.0/16")
    mk_as(200, "MiniTier1", ASType.TIER1, "10.200.0.0/16")
    mk_as(300, "MiniTransit", ASType.TRANSIT, "10.30.0.0/16")
    mk_as(400, "ISP Alpha", ASType.ACCESS_ISP, "10.40.0.0/16")
    mk_as(500, "ISP Beta", ASType.ACCESS_ISP, "10.50.0.0/16")

    pops = {}

    def mk_pop(label, asn, city_key, loopback):
        pop = topo.add_pop(asn, city_key, parse_ip(loopback))
        pops[label] = pop.pop_id
        return pop

    wk = MINI_CITIES["west"].key
    ck = MINI_CITIES["central"].key
    ek = MINI_CITIES["east"].key
    sk = MINI_CITIES["south"].key

    mk_pop("cloud-west", 100, wk, "10.100.0.1")
    mk_pop("cloud-central", 100, ck, "10.100.0.2")
    mk_pop("cloud-east", 100, ek, "10.100.0.3")
    mk_pop("t1-west", 200, wk, "10.200.0.1")
    mk_pop("t1-east", 200, ek, "10.200.0.2")
    mk_pop("transit-east", 300, ek, "10.30.0.1")
    mk_pop("transit-south", 300, sk, "10.30.0.2")
    mk_pop("ispa-west", 400, wk, "10.40.0.1")
    mk_pop("ispa-east", 400, ek, "10.40.0.2")
    mk_pop("ispb-south", 500, sk, "10.50.0.1")

    links = {}

    def delay(a, b):
        return propagation_delay_ms(a.point, b.point)

    def backbone(label, pa, pb, city_a, city_b, cap=400.0):
        link = topo.add_link(LinkKind.BACKBONE, pops[pa], pops[pb],
                             gbps(cap), delay(MINI_CITIES[city_a],
                                              MINI_CITIES[city_b]))
        links[label] = link.link_id

    backbone("cloud-wc", "cloud-west", "cloud-central", "west", "central")
    backbone("cloud-ce", "cloud-central", "cloud-east", "central", "east")
    backbone("t1-we", "t1-west", "t1-east", "west", "east")
    backbone("transit-es", "transit-east", "transit-south", "east", "south")
    backbone("ispa-we", "ispa-west", "ispa-east", "west", "east")

    def border(label, near_label, far_label, near_ip, far_ip,
               rel, a_asn, b_asn, cap=20.0):
        link = topo.add_link(LinkKind.INTERDOMAIN, pops[near_label],
                             pops[far_label], gbps(cap), 0.2,
                             ip_a=parse_ip(near_ip), ip_b=parse_ip(far_ip),
                             address_asn=a_asn)
        links[label] = link.link_id
        topo.add_relationship(ASRelationship(a_asn, b_asn, rel))
        topo.register_interdomain(InterdomainLink(
            link_id=link.link_id, near_asn=a_asn, far_asn=b_asn,
            city_key=topo.pop(pops[near_label]).city_key,
            near_ip=parse_ip(near_ip), far_ip=parse_ip(far_ip)))

    # Cloud <-> ISP Alpha peering at west and east (cloud-numbered).
    border("peer-aw", "cloud-west", "ispa-west",
           "10.100.8.1", "10.100.8.2", RelationshipKind.PEER_TO_PEER,
           100, 400)
    border("peer-ae", "cloud-east", "ispa-east",
           "10.100.8.5", "10.100.8.6", RelationshipKind.PEER_TO_PEER,
           100, 400)
    # Cloud buys transit from Tier1 at west (standard-tier gateway).
    border("cloud-t1", "cloud-west", "t1-west",
           "10.100.8.9", "10.100.8.10",
           RelationshipKind.CUSTOMER_TO_PROVIDER, 100, 200)
    # And at east, so standard ingress can be delivered near an
    # east-coast region too.
    border("cloud-t1e", "cloud-east", "t1-east",
           "10.100.8.13", "10.100.8.14",
           RelationshipKind.CUSTOMER_TO_PROVIDER, 100, 200)
    # Transit buys from Tier1 at east.
    border("transit-t1", "transit-east", "t1-east",
           "10.30.8.1", "10.30.8.2",
           RelationshipKind.CUSTOMER_TO_PROVIDER, 300, 200)
    # ISP Alpha also buys from the transit (backup path).
    border("ispa-transit", "ispa-east", "transit-east",
           "10.40.8.1", "10.40.8.2",
           RelationshipKind.CUSTOMER_TO_PROVIDER, 400, 300)
    # ISP Beta is single-homed behind the transit.
    border("ispb-transit", "ispb-south", "transit-south",
           "10.50.8.1", "10.50.8.2",
           RelationshipKind.CUSTOMER_TO_PROVIDER, 500, 300)

    # Announce one /24 per eyeball PoP for probing tools.
    topo.register_announced_prefix(Prefix.parse("10.40.24.0/24"),
                                   pops["ispa-west"])
    topo.register_announced_prefix(Prefix.parse("10.40.25.0/24"),
                                   pops["ispa-east"])
    topo.register_announced_prefix(Prefix.parse("10.50.24.0/24"),
                                   pops["ispb-south"])
    topo.as_of(400).prefixes.extend([Prefix.parse("10.40.24.0/24"),
                                     Prefix.parse("10.40.25.0/24")])
    topo.as_of(500).prefixes.append(Prefix.parse("10.50.24.0/24"))

    topo.validate()
    return MiniWorld(topology=topo, pops=pops, links=links)


@pytest.fixture()
def mini_world() -> MiniWorld:
    return build_mini_world()


@pytest.fixture(scope="session")
def small_scenario():
    """A generated scenario shared by integration tests."""
    from repro.experiments import build_scenario
    return build_scenario(seed=11, scale=0.08)


@pytest.fixture(scope="session")
def seeds() -> SeedTree:
    return SeedTree(1234)


@pytest.fixture(scope="session")
def repro_subclasses():
    """Builder: every subclass of *base* defined in a ``repro`` module.

    Every module of the package is imported first, so a subclass in a
    module no test imports is still found; classes defined in tests
    are left out.
    """
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)

    def subclasses(base):
        found, stack = set(), [base]
        while stack:
            for cls in stack.pop().__subclasses__():
                stack.append(cls)
                if cls.__module__.startswith("repro."):
                    found.add(cls)
        return sorted(found, key=lambda c: (c.__module__, c.__qualname__))
    return subclasses


# ----------------------------------------------------------------------
# shared campaign/deployment builders over the session scenario


@pytest.fixture(scope="session")
def us_server_ids(small_scenario):
    """Builder: the first *n* US server ids of the shared catalog."""
    def ids(n):
        return [s.server_id
                for s in small_scenario.catalog.servers(country="US")[:n]]
    return ids


@pytest.fixture(scope="session")
def deploy_us_plan(small_scenario, us_server_ids):
    """Builder: deploy a premium topology plan of *n_servers* US servers."""
    def deploy(region, n_servers, ts=float(CAMPAIGN_START)):
        return small_scenario.clasp.orchestrator.deploy_topology(
            region, us_server_ids(n_servers), ts)
    return deploy


@pytest.fixture(scope="session")
def run_us_campaign(small_scenario, deploy_us_plan):
    """Builder: deploy one plan per region and run a short campaign."""
    def run(regions, n_servers=8, days=2):
        plans = [deploy_us_plan(region, n_servers) for region in regions]
        dataset = small_scenario.clasp.run_campaign(plans, days=days)
        return plans, dataset
    return run
