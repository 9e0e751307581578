"""Provider registry: every cloud the simulation can speak for.

The registry is built once at import time and frozen behind a
:class:`types.MappingProxyType`: nothing ever mutates it, so every
run sees the same providers in the same order.

``get_provider`` is the one resolution point the rest of the package
uses: it accepts a name, an existing :class:`CloudProvider`, or
``None`` (meaning the GCP default), so call sites can thread a
``provider=`` argument through without caring which form they got.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional, Union

from ...errors import ProviderLookupError
from .aws import AWS
from .base import CloudProvider, TierRoute, WanConfig
from .gcp import GCP
from .openstack import OPENSTACK
from .tiervocab import AwsTier, OpenStackTier

__all__ = ["PROVIDERS", "get_provider", "resolve_tier",
           "CloudProvider", "TierRoute", "WanConfig",
           "GCP", "AWS", "OPENSTACK", "AwsTier", "OpenStackTier"]

#: name -> provider, frozen at import time.  GCP first: it is the
#: default, and the fallback namespace for tier-value resolution.
PROVIDERS: Mapping[str, CloudProvider] = MappingProxyType({
    provider.name: provider for provider in (GCP, AWS, OPENSTACK)
})


def get_provider(
        provider: Optional[Union[str, CloudProvider]] = None
) -> CloudProvider:
    """Resolve a provider name (or pass through an instance).

    ``None`` resolves to GCP, the paper's platform.
    """
    if provider is None:
        return GCP
    if isinstance(provider, CloudProvider):
        return provider
    try:
        return PROVIDERS[provider]
    except KeyError:
        raise ProviderLookupError(
            f"unknown cloud provider {provider!r}; registered: "
            f"{', '.join(sorted(PROVIDERS))}") from None


def resolve_tier(value: str, provider: Optional[str] = None):
    """Tier enum member for a serialized tier value.

    With *provider* given, the lookup is exact within that provider's
    vocabulary.  Without it (legacy datasets that predate the provider
    manifest key), GCP is tried first, then the other providers in
    registry order - so ``"standard"`` keeps meaning GCP standard tier
    for every dataset written before providers existed.
    """
    if provider is not None:
        return get_provider(provider).tier_by_value(value)
    for candidate in PROVIDERS.values():
        for tier in candidate.tiers:
            if tier.value == value:
                return tier
    raise ProviderLookupError(f"no registered provider has a network "
                              f"tier {value!r}")
