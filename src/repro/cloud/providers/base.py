"""The provider interface: everything GCP-shaped, made pluggable.

A :class:`CloudProvider` owns the vocabulary the rest of the package
used to hardcode for GCP: the region catalog, machine types, the
network-tier enum, the tier -> ``(GraphMode, TierPolicy, TierPolicy)``
routing table, the billing rate card, and the defaults the orchestrator
and measurement tools reach for (default machine type, probe machine
type, measurement tier, differential tier pair).

Providers are pure data + lookup methods.  They may import ``netsim``
(for the routing vocabulary) and their ``cloud`` siblings, but never
``core`` or ``engine`` - the lint layering rules enforce this, so a
provider can be defined without dragging in the campaign machinery.

Providers whose WAN does not exist in a freshly generated Internet
(everything except GCP) carry a :class:`WanConfig` describing how to
grow one: which ASN, which metros, how much backbone, how many transit
providers.  :meth:`repro.netsim.generator.TopologyGenerator.add_cloud_wan`
consumes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from ...errors import ConfigError, ProviderLookupError
from ...netsim.routing import GraphMode, TierPolicy
from ..billing import PriceBook
from ..machinetypes import MachineType
from ..regions import Region
from ..tiers import Direction

__all__ = ["TierRoute", "WanConfig", "CloudProvider"]

#: (graph mode, first-AS policy, last-AS policy) - one tier-table row.
TierRoute = Tuple[GraphMode, TierPolicy, TierPolicy]


@dataclass(frozen=True)
class WanConfig:
    """How to grow a provider's WAN into a generated Internet.

    ``city_keys`` lists the metros that get a PoP; a single entry makes
    a single-DC provider with no backbone at all.  ``n_transits`` is
    how many tier-1s the WAN buys transit from (every provider needs at
    least one to be reachable).
    """

    asn: int
    as_name: str
    city_keys: Tuple[str, ...]
    backbone_gbps: Tuple[float, float] = (100.0, 400.0)
    n_transits: int = 2


class CloudProvider:
    """One cloud provider's catalogs, tier semantics, and defaults.

    Instances are immutable after construction: the mappings are frozen
    behind :class:`types.MappingProxyType` views, so the module-level
    provider registry is safe to share across shard workers.
    """

    def __init__(self, *, name: str, display_name: str,
                 regions: Mapping[str, Region],
                 machine_types: Mapping[str, MachineType],
                 tiers: Tuple[enum.Enum, ...],
                 tier_table: Mapping[Tuple[Direction, enum.Enum], TierRoute],
                 price_book: PriceBook,
                 default_region: str,
                 default_machine_type: str,
                 probe_machine_type: str,
                 measurement_tier: enum.Enum,
                 differential_tiers: Optional[Tuple[enum.Enum, enum.Enum]],
                 wan: Optional[WanConfig] = None) -> None:
        self.name = name
        self.display_name = display_name
        self.regions: Mapping[str, Region] = MappingProxyType(dict(regions))
        self.machine_types: Mapping[str, MachineType] = MappingProxyType(
            dict(machine_types))
        self.tiers = tuple(tiers)
        self.tier_table: Mapping[Tuple[Direction, enum.Enum], TierRoute] = (
            MappingProxyType(dict(tier_table)))
        self.price_book = price_book
        self.default_region = default_region
        self.default_machine_type = default_machine_type
        self.probe_machine_type = probe_machine_type
        self.measurement_tier = measurement_tier
        self.differential_tiers = differential_tiers
        self.wan = wan
        self._validate()

    def _validate(self) -> None:
        if not self.tiers:
            raise ConfigError(f"provider {self.name!r} declares no tiers")
        for direction in Direction:
            for tier in self.tiers:
                if (direction, tier) not in self.tier_table:
                    raise ConfigError(
                        f"provider {self.name!r} tier table is missing "
                        f"({direction.value}, {tier.value})")
        for label, attr in (("default region", self.default_region),):
            if attr not in self.regions:
                raise ConfigError(
                    f"provider {self.name!r} {label} {attr!r} is not in "
                    f"its region catalog")
        for label, mname in (("default", self.default_machine_type),
                             ("probe", self.probe_machine_type)):
            if mname not in self.machine_types:
                raise ConfigError(
                    f"provider {self.name!r} {label} machine type "
                    f"{mname!r} is not in its catalog")
        tier_set = set(self.tiers)
        if self.measurement_tier not in tier_set:
            raise ConfigError(
                f"provider {self.name!r} measurement tier is not one of "
                f"its tiers")
        if self.differential_tiers is not None:
            a, b = self.differential_tiers
            if a not in tier_set or b not in tier_set or a is b:
                raise ConfigError(
                    f"provider {self.name!r} differential tiers must be "
                    f"two distinct members of its tier enum")
        values = [t.value for t in self.tiers]
        if len(set(values)) != len(values):
            raise ConfigError(
                f"provider {self.name!r} tier values are not unique")

    # ------------------------------------------------------------------
    # lookups (all raise ProviderLookupError, a CloudError that is also
    # a ValidationError, on unknown names)

    def region(self, name: str) -> Region:
        try:
            return self.regions[name]
        except KeyError:
            raise ProviderLookupError(
                f"unknown {self.name} region {name!r}") from None

    def machine_type(self, name: str) -> MachineType:
        try:
            return self.machine_types[name]
        except KeyError:
            raise ProviderLookupError(
                f"unknown {self.name} machine type {name!r}") from None

    def tier_route(self, direction: Direction, tier: enum.Enum) -> TierRoute:
        try:
            return self.tier_table[(direction, tier)]
        except KeyError:
            raise ProviderLookupError(
                f"provider {self.name} has no tier-table entry for "
                f"({direction.value}, {getattr(tier, 'value', tier)!r})"
            ) from None

    def tier_by_value(self, value: str) -> enum.Enum:
        for tier in self.tiers:
            if tier.value == value:
                return tier
        raise ProviderLookupError(
            f"unknown {self.name} network tier {value!r}")

    # ------------------------------------------------------------------

    def bucket_name(self, region_name: str) -> str:
        """Results-bucket name for a region (provider storage endpoint)."""
        return f"clasp-results-{region_name}"

    def region_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.regions))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CloudProvider(name={self.name!r}, "
                f"regions={len(self.regions)}, tiers={len(self.tiers)})")
