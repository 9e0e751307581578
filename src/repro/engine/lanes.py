"""Execution lanes and the staged hour loop.

A :class:`Lane` is one independent unit of campaign work: the pairing
of a deployment plan with one measurement VM assignment.  The lane
owns everything that is per-assignment state - the hourly schedule,
the earliest timestamp the current VM can serve (``ready_ts``), and
the replacement counter that names re-provisioned VMs - so no shared
dictionaries are threaded through the hour loop.

:class:`CampaignEngine` is the loop itself: advance simulated time
one hour, publish :class:`~repro.engine.events.HourStarted`,
step every lane, repeat; then publish
:class:`~repro.engine.events.CampaignFinished`.  *How* a lane-hour
runs (tests, retries, uploads, preemption recovery) is the stepper's
business: :class:`repro.core.campaign.LaneExecutor` implements it and
emits the remaining event taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from ..errors import ValidationError
from ..units import HOUR
from .bus import EventBus
from .events import CampaignFinished, HourStarted

__all__ = ["CampaignEngine", "Lane"]


@dataclass
class Lane:
    """One (plan, VM) assignment and every bit of its per-lane state.

    ``schedule``, ``vm``, and ``plan`` are opaque to the engine (they
    are core/cloud objects); the engine only guarantees their identity
    and ownership.  ``name`` is the *original* VM name and stays
    stable across replacements - it keys the lane's seed stream and
    prefixes replacement VM names.
    """

    name: str
    region: str
    schedule: Any
    vm: Any
    ready_ts: float
    plan: Any = None
    replacements: int = 0

    def next_replacement_name(self) -> str:
        """Reserve the next ``<lane>-r<n>`` replacement VM name."""
        self.replacements += 1
        return f"{self.name}-r{self.replacements}"


class CampaignEngine:
    """Steps every lane through every hour, publishing events.

    *stepper* is any object with ``step(lane, hour_start)``.
    """

    def __init__(self, lanes: Sequence[Lane], stepper: Any,
                 bus: EventBus, start_ts: float, n_hours: int) -> None:
        if n_hours < 1:
            raise ValidationError(f"n_hours must be >= 1, got {n_hours}")
        if start_ts % HOUR != 0:
            raise ValidationError(
                f"start_ts {start_ts} is not hour-aligned")
        self.lanes: List[Lane] = list(lanes)
        self.stepper = stepper
        self.bus = bus
        self.start_ts = float(start_ts)
        self.n_hours = int(n_hours)

    @property
    def end_ts(self) -> float:
        return self.start_ts + self.n_hours * HOUR

    def run(self) -> None:
        """The whole campaign: ``for hour: step every lane``."""
        for hour_index in range(self.n_hours):
            hour_start = self.start_ts + hour_index * HOUR
            self.bus.emit(HourStarted(ts=hour_start, hour_index=hour_index))
            for lane in self.lanes:
                self.stepper.step(lane, hour_start)
        self.bus.emit(CampaignFinished(ts=self.end_ts,
                                       n_hours=self.n_hours))
