"""Synthetic Internet substrate.

This package implements everything the CLASP experiments need from "the
Internet": IPv4 addressing, an AS-level topology with business
relationships, city-level PoPs and interdomain links, valley-free policy
routing (with the cloud provider's premium/standard tier semantics),
time-varying link utilization with diurnal/pandemic load, and a TCP
throughput model that turns a routed path plus link state into the
latency/loss/throughput a measurement flow would observe.
"""

from .addressing import (
    Prefix,
    PrefixAllocator,
    PrefixTrie,
    format_ip,
    parse_ip,
)
from .asn import AS, ASRelationship, ASType, RelationshipKind
from .topology import InterdomainLink, Interface, Link, LinkKind, PoP, Topology
from .generator import GeneratorConfig, TopologyGenerator
from .routing import Route, Router as RoutingEngine, TierPolicy
from .traffic import DiurnalProfile, UtilizationModel
from .linkstate import LinkObservation, LinkStateEvaluator
from .tcp import multiflow_throughput_mbps
from .pathmodel import PathMetrics, PathPerformanceModel

__all__ = [
    "Prefix", "PrefixAllocator", "PrefixTrie", "format_ip", "parse_ip",
    "AS", "ASRelationship", "ASType", "RelationshipKind",
    "InterdomainLink", "Interface", "Link", "LinkKind", "PoP", "Topology",
    "GeneratorConfig", "TopologyGenerator",
    "Route", "RoutingEngine", "TierPolicy",
    "DiurnalProfile", "UtilizationModel",
    "LinkObservation", "LinkStateEvaluator",
    "multiflow_throughput_mbps",
    "PathMetrics", "PathPerformanceModel",
]
