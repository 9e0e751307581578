"""A synchronous, deterministic-order event bus.

Dispatch rules (these are contracts, pinned by tests):

* Subscribers are invoked in **registration order** for every event.
* :meth:`EventBus.emit` is synchronous: when it returns, every
  subscriber has seen the event.
* Events emitted *from inside a handler* (e.g. a billing observer
  publishing ``BillingCharged`` while handling ``HourStarted``) are
  queued FIFO and dispatched after the current event finishes its full
  subscriber pass - emission order is never reordered, and no handler
  ever sees event B before event A when A was emitted first.
* A :class:`~repro.engine.events.TestBlock` goes whole to every
  subscriber with an ``on_test_block`` hook.  Every other subscriber
  gets, in its place, the block's exact expansion
  (:meth:`~repro.engine.events.TestBlock.expand`: per slot a
  ``TestLost``, or ``[TestRetried] TestCompleted
  [BillingCharged(egress)]``), so its event stream is the one a
  per-test publisher would have produced.  The expansion is built once
  per block, and only when such a subscriber exists; a block counts as
  one emitted event.

There are no threads, no async, no wall clocks: the bus adds zero
nondeterminism to a campaign run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import ValidationError
from .events import CampaignEvent, TestBlock

__all__ = ["EventBus", "Handler"]

Handler = Callable[[CampaignEvent], None]


class EventBus:
    """Deterministic synchronous pub/sub for campaign events."""

    def __init__(self) -> None:
        #: ``(handler, block hook or None)`` per subscriber, in
        #: registration order.
        self._subscribers: List[
            Tuple[Handler, Optional[Callable[[TestBlock], None]]]] = []
        self._queue: Deque[CampaignEvent] = deque()
        self._dispatching = False
        #: Total events dispatched (handy for progress and assertions).
        self.n_emitted = 0

    def subscribe(self, observer: Any) -> Any:
        """Register an observer; returns it (decorator-friendly).

        *observer* is either a callable taking one event, or an object
        with an ``on_event(event)`` method (the
        :class:`~repro.engine.observers.Observer` contract).  An object
        that also has ``on_test_block(block)`` receives test blocks
        whole instead of their per-test expansion.
        """
        handler = getattr(observer, "on_event", observer)
        if not callable(handler):
            raise ValidationError(
                f"subscriber {observer!r} is neither callable nor has "
                f"an on_event method")
        self._subscribers.append(
            (handler, getattr(observer, "on_test_block", None)))
        return observer

    def emit(self, event: CampaignEvent) -> None:
        """Publish *event* to every subscriber, in registration order.

        Re-entrant calls (a handler emitting while a dispatch is in
        progress) enqueue behind the in-flight event instead of
        preempting it, so observers always see a linear, identical
        event sequence regardless of which of them emit.
        """
        self._queue.append(event)
        if self._dispatching:
            return
        self._dispatching = True
        try:
            while self._queue:
                current = self._queue.popleft()
                self.n_emitted += 1
                if isinstance(current, TestBlock):
                    self._dispatch_block(current)
                    continue
                for handler, _hook in tuple(self._subscribers):
                    handler(current)
        finally:
            self._dispatching = False

    def _dispatch_block(self, block: TestBlock) -> None:
        expansion: Optional[List[CampaignEvent]] = None
        for handler, hook in tuple(self._subscribers):
            if hook is not None:
                hook(block)
                continue
            if expansion is None:
                expansion = block.expand()
            for event in expansion:
                handler(event)
