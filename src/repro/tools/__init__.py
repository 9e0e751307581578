"""Measurement tooling: the instruments CLASP runs on and around VMs.

Re-implementations, against the simulator's abstractions, of the tools
the paper used: CAIDA's prefix-to-AS dataset, scamper's
paris-traceroute, bdrmap border inference, an ipinfo-style
business-type database, and Speedchecker edge latency probes.
"""

from .prefix2as import Prefix2AS, build_prefix2as
from .traceroute import Hop, Scamper, Traceroute
from .bdrmap import Bdrmap, BdrmapResult, InferredLink
from .ipinfo import BusinessType, IpInfoDatabase
from .speedchecker import Speedchecker, TupleMedian

__all__ = [
    "Prefix2AS", "build_prefix2as",
    "Hop", "Scamper", "Traceroute",
    "Bdrmap", "BdrmapResult", "InferredLink",
    "BusinessType", "IpInfoDatabase",
    "Speedchecker", "TupleMedian",
]
