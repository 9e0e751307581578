"""The staged campaign engine: events, bus, lanes, observers.

This package is the instrumentation seam of the campaign stack.  The
hour loop lives here as :class:`~repro.engine.lanes.CampaignEngine`,
which steps one independent :class:`~repro.engine.lanes.Lane` per
(plan, VM) assignment and publishes every operational fact - tests
completed, retries, losses, uploads, preemptions, billing - as a typed
event on a deterministic :class:`~repro.engine.bus.EventBus`.

The engine is deliberately domain-agnostic: it may import only
``repro.units``, ``repro.errors``, ``repro.rng``, and
``repro.simclock`` (enforced by lint rule RPR007).  Domain objects
(VMs, schedules, deployment plans, datasets) pass through it as opaque
payloads; the campaign layer in :mod:`repro.core.campaign` supplies
the lane stepper that knows how to run an hour, and observers rebuild
datasets, metrics, traces, and progress ticks from the event stream
alone.
"""

from .bus import EventBus
from .events import (BillingCharged, CampaignEvent, CampaignFinished,
                     EVENT_KINDS, HourStarted, TestCompleted, TestLost,
                     TestRetried, UploadAttempted, VMPreempted, VMReplaced,
                     event_payload)
from .lanes import CampaignEngine, Lane, LaneStepper
from .observers import (DatasetObserver, Histogram, MetricsObserver,
                        Observer, TraceObserver)

__all__ = [
    "BillingCharged",
    "CampaignEngine",
    "CampaignEvent",
    "CampaignFinished",
    "DatasetObserver",
    "EVENT_KINDS",
    "EventBus",
    "Histogram",
    "HourStarted",
    "Lane",
    "LaneStepper",
    "MetricsObserver",
    "Observer",
    "TestCompleted",
    "TestLost",
    "TestRetried",
    "TraceObserver",
    "UploadAttempted",
    "VMPreempted",
    "VMReplaced",
    "event_payload",
]
