"""Network service tiers.

* **Premium** - traffic rides the cloud's private WAN: egress exits at
  the interconnection nearest the destination (cold potato), ingress
  enters the WAN at the edge nearest the source and is carried to the
  region.  Routed over the full peering graph.
* **Standard** - traffic uses the public Internet: egress exits via a
  transit provider at the origin region (hot potato), ingress travels
  transit all the way and is delivered at the interconnection nearest
  the region, because standard-tier prefixes are only announced there.

The mapping to route computation lives in each provider's tier table
(:attr:`repro.cloud.providers.base.CloudProvider.tier_table`), consumed
by :meth:`repro.cloud.api.CloudPlatform.route`.
"""

from __future__ import annotations

import enum

__all__ = ["Direction", "NetworkTier"]


class Direction(enum.Enum):
    """Direction of bulk data relative to the VM."""

    EGRESS = "egress"     # VM -> remote (upload test data direction)
    INGRESS = "ingress"   # remote -> VM (download test data direction)


class NetworkTier(enum.Enum):
    """The two network service tiers GCP sells.

    Other providers carry their own tier enums (see
    :mod:`repro.cloud.providers`); this one stays here because the
    paper's platform is GCP and most of the package speaks it natively.
    """

    PREMIUM = "premium"
    STANDARD = "standard"
