"""VM network interface with ``tc``-style rate caps.

CLASP throttles each measurement VM to 1 Gbps down / 100 Mbps up with
Linux ``tc`` so tests cannot overload networks (and so upload egress -
the billable direction - stays cheap).  :class:`NetworkInterface`
carries the physical attachment plus one optional rate cap per
direction; the speed test model only ever reads the steady-state rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError

__all__ = ["NetworkInterface"]


@dataclass
class NetworkInterface:
    """A VM's NIC: physical attachment plus per-direction rate caps.

    ``host_pop_id`` is the host node in the topology; ``ip`` its
    address.  Caps are optional (``None`` means line rate, bounded
    only by the machine type's egress cap).
    """

    ip: int
    host_pop_id: int
    attach_link_id: int
    ingress_mbps: Optional[float] = None
    egress_mbps: Optional[float] = None

    def apply_tc(self, ingress_mbps: Optional[float],
                 egress_mbps: Optional[float]) -> None:
        """Install/replace the caps, as ``tc qdisc replace`` would."""
        for rate in (ingress_mbps, egress_mbps):
            if rate is not None and rate <= 0:
                raise ConfigError(f"shaper rate must be positive: {rate}")
        self.ingress_mbps = ingress_mbps
        self.egress_mbps = egress_mbps

    def ingress_cap_mbps(self) -> float:
        return self.ingress_mbps if self.ingress_mbps is not None \
            else float("inf")

    def egress_cap_mbps(self) -> float:
        return self.egress_mbps if self.egress_mbps is not None \
            else float("inf")
