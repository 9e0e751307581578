"""Cloud billing: VM hours, egress traffic, storage.

The paper's deployment cost over USD 6,000/month (egress, storage,
VMs), which is why CLASP throttles uplink to 100 Mbps (only egress is
billed) and why only subsets of selected servers were measured in three
regions.  The cost tracker reproduces those economics so budget-driven
decisions in the orchestrator are real decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import BudgetExhaustedError, ConfigError, ValidationError
from ..units import bytes_to_gb
from .tiers import NetworkTier

__all__ = ["PriceBook", "CostTracker"]


@dataclass(frozen=True)
class PriceBook:
    """USD prices, loosely matching 2020 GCP list prices."""

    #: $/GB of egress to the Internet, by network tier.
    egress_per_gb: Dict[str, float] = field(default_factory=lambda: {
        NetworkTier.PREMIUM.value: 0.12,
        NetworkTier.STANDARD.value: 0.085,
    })
    #: $/GB-month of bucket storage.
    storage_per_gb_month: float = 0.020
    #: $/GB for intra-region traffic (VM <-> bucket in same region).
    intra_region_per_gb: float = 0.0

    def egress_usd(self, n_bytes: float, tier: NetworkTier) -> float:
        return self.egress_usd_each((n_bytes,), tier)[0]

    def egress_usd_each(self, byte_counts: Sequence[float],
                        tier: NetworkTier) -> List[float]:
        """:meth:`egress_usd` of every count, with one rate lookup."""
        if any(n_bytes < 0 for n_bytes in byte_counts):
            raise ValidationError(
                f"bytes must be >= 0, got {min(byte_counts)}")
        # Accept any provider's tier enum (or a raw tier value string):
        # the rate card is keyed on serialized tier values.
        key = getattr(tier, "value", tier)
        try:
            rate = self.egress_per_gb[key]
        except KeyError:
            raise ValidationError(
                f"no egress rate for tier {key!r}; priced tiers: "
                f"{', '.join(sorted(self.egress_per_gb))}") from None
        return [bytes_to_gb(n_bytes) * rate for n_bytes in byte_counts]

    def storage_usd(self, n_bytes: float, months: float) -> float:
        if n_bytes < 0 or months < 0:
            raise ValidationError("bytes and months must be >= 0")
        return bytes_to_gb(n_bytes) * months * self.storage_per_gb_month


class CostTracker:
    """Accumulates spend by category and enforces an optional budget."""

    CATEGORIES = ("vm_hours", "egress", "storage", "intra_region")

    def __init__(self, prices: Optional[PriceBook] = None,
                 budget_usd: Optional[float] = None) -> None:
        if budget_usd is not None and budget_usd <= 0:
            raise ConfigError(f"budget must be positive, got {budget_usd}")
        self.prices = prices or PriceBook()
        self.budget_usd = budget_usd
        #: USD spent so far, by category.
        self.spend: Dict[str, float] = {c: 0.0 for c in self.CATEGORIES}

    # ------------------------------------------------------------------

    def _add(self, category: str, usd: float) -> None:
        if category not in self.spend:
            raise ConfigError(f"unknown cost category {category!r}")
        if usd < 0:
            raise ValidationError(f"cannot add negative spend: {usd}")
        if (self.budget_usd is not None
                and self.total_usd + usd > self.budget_usd):
            raise BudgetExhaustedError(
                f"spending ${usd:.2f} on {category} would exceed the "
                f"${self.budget_usd:.2f} budget "
                f"(spent ${self.total_usd:.2f})")
        self.spend[category] += usd

    def charge_vm_hours(self, hourly_usd: float, hours: float) -> float:
        """Charge VM uptime; returns the amount charged."""
        if hours < 0 or hourly_usd < 0:
            raise ValidationError("hours and hourly rate must be >= 0")
        usd = hourly_usd * hours
        self._add("vm_hours", usd)
        return usd

    def charge_egress(self, n_bytes: float, tier: NetworkTier) -> float:
        """Charge Internet egress in the given tier."""
        usd = self.prices.egress_usd(n_bytes, tier)
        self._add("egress", usd)
        return usd

    def book_egress(self, amounts_usd: Iterable[float]) -> None:
        """Book egress charges priced by :meth:`PriceBook.egress_usd`,
        one at a time in order, so a budget runs out at the same
        charge as with one :meth:`charge_egress` per transfer."""
        for usd in amounts_usd:
            self._add("egress", usd)

    def charge_storage(self, n_bytes: float, months: float) -> float:
        usd = self.prices.storage_usd(n_bytes, months)
        self._add("storage", usd)
        return usd

    def charge_intra_region(self, n_bytes: float) -> float:
        usd = bytes_to_gb(n_bytes) * self.prices.intra_region_per_gb
        self._add("intra_region", usd)
        return usd

    # ------------------------------------------------------------------

    @property
    def total_usd(self) -> float:
        return sum(self.spend.values())
