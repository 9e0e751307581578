"""Fault-plan configuration.

A :class:`FaultPlan` declares *how much* operational noise the
simulated cloud produces: VM preemptions, replacement VMs that are
slow to come up, transient speed-test failures and truncated
transfers, storage-upload hiccups, and link flaps.  It also fixes the
recovery budget the campaign stack is allowed (bounded retries with a
deterministic exponential backoff).

The plan carries no randomness of its own.  The
:class:`~repro.faults.injector.FaultInjector` combines a plan with a
:class:`~repro.rng.SeedTree`, which is what makes every fault schedule
reproducible from one integer seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["FaultKind", "FaultPlan"]


class FaultKind(enum.Enum):
    """Every category of injected fault, keyed by its injection site."""

    #: A running measurement VM is reclaimed by the provider
    #: (``cloud.api`` / ``cloud.vm``).
    VM_PREEMPTION = "vm-preemption"
    #: A replacement VM needs extra hours before it serves tests
    #: (``cloud.api``).
    VM_SLOW_START = "vm-slow-start"
    #: One speed test fails outright (``speedtest.protocol``).
    SPEEDTEST_FAILURE = "speedtest-failure"
    #: A bulk-transfer phase ends early (``speedtest.protocol`` /
    #: ``speedtest.browser`` retry path).
    TRUNCATED_TRANSFER = "truncated-transfer"
    #: Shipping an hour's artefacts to the bucket fails
    #: (``cloud.storage``).
    UPLOAD_FAILURE = "upload-failure"
    #: A link direction is saturated for a whole hour
    #: (``netsim.linkstate``).
    LINK_FLAP = "link-flap"


_RATE_FIELDS = (
    "vm_preemption_per_hour",
    "speedtest_failure_rate",
    "truncated_transfer_rate",
    "upload_failure_rate",
    "link_flap_per_hour",
)


@dataclass(frozen=True)
class FaultPlan:
    """Rates and recovery knobs for deterministic fault injection.

    All ``*_rate`` / ``*_per_hour`` values are per-event probabilities
    in ``[0, 1)``.  A disabled plan (``enabled=False``) injects
    nothing regardless of the rates.
    """

    enabled: bool = True
    #: Probability a running VM is preempted in any given hour.
    vm_preemption_per_hour: float = 0.0
    #: A replacement VM misses up to this many extra hours warming up.
    slow_start_max_hours: int = 2
    #: Probability one speed test fails outright.
    speedtest_failure_rate: float = 0.0
    #: Probability a test's bulk transfer is truncated mid-flight.
    truncated_transfer_rate: float = 0.0
    #: Probability one bucket-upload attempt fails.
    upload_failure_rate: float = 0.0
    #: Probability a link direction flaps for a given hour.
    link_flap_per_hour: float = 0.0
    #: Background utilization a flapped link is forced to (>= 1 means
    #: saturated: heavy loss, bufferbloat-level queueing).
    link_flap_utilization: float = 2.5
    #: Bounded-retry budget for tests and uploads.
    max_retries: int = 3
    #: Deterministic backoff: ``backoff_base_s * backoff_factor**attempt``.
    backoff_base_s: float = 5.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1), got {value}")
        if self.slow_start_max_hours < 0:
            raise ValidationError(
                f"slow_start_max_hours must be >= 0, "
                f"got {self.slow_start_max_hours}")
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s <= 0 or self.backoff_factor < 1.0:
            raise ValidationError(
                "backoff_base_s must be > 0 and backoff_factor >= 1")
        if self.link_flap_utilization < 1.0:
            raise ValidationError(
                f"link_flap_utilization must be >= 1, "
                f"got {self.link_flap_utilization}")

    # ------------------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that injects nothing (faults disabled)."""
        return cls(enabled=False)

    @classmethod
    def default(cls) -> "FaultPlan":
        """Moderate rates matching a long-running real GCP campaign."""
        return cls(
            vm_preemption_per_hour=0.002,
            slow_start_max_hours=2,
            speedtest_failure_rate=0.01,
            truncated_transfer_rate=0.01,
            upload_failure_rate=0.02,
            link_flap_per_hour=0.001,
        )

    @classmethod
    def heavy(cls) -> "FaultPlan":
        """Aggressive rates for stress-testing the recovery paths."""
        return cls(
            vm_preemption_per_hour=0.05,
            slow_start_max_hours=3,
            speedtest_failure_rate=0.10,
            truncated_transfer_rate=0.10,
            upload_failure_rate=0.15,
            link_flap_per_hour=0.01,
        )

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff before retry number *attempt* (0-based)."""
        if attempt < 0:
            raise ValidationError(f"attempt must be >= 0, got {attempt}")
        return self.backoff_base_s * self.backoff_factor ** attempt
