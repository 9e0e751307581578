"""Tier enums for the non-GCP providers.

These live in their own module (rather than inside each provider
definition) so code that only needs the vocabulary - the export
loader's tier resolver, tests, reports - can import it without
touching the provider catalogs.  GCP's :class:`NetworkTier` stays in
:mod:`repro.cloud.tiers` for backwards compatibility.
"""

from __future__ import annotations

import enum

__all__ = ["AwsTier", "OpenStackTier"]


class AwsTier(enum.Enum):
    """AWS-like tiers: the default path, plus an accelerated product."""

    STANDARD = "standard"
    ACCELERATED = "accelerated"


class OpenStackTier(enum.Enum):
    """A private cloud has exactly one network: the datacenter fabric."""

    INTERNAL = "internal"
