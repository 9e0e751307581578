"""The campaign event taxonomy.

Every operational fact the engine knows is published as one of the
frozen dataclasses below.  Events are plain data: strings, numbers,
booleans.  :func:`event_payload` flattens an event to its
JSON-serializable fields, which is the wire format the trace observer
writes and what tests compare across runs.

A lane-hour's test slots travel as one :class:`TestBlock`: the slots
(:class:`SlotColumns`) and the completed tests (:class:`ResultColumns`)
as columns, one event per lane-hour instead of two or three per test.
:meth:`TestBlock.expand` is the block's exact per-test meaning - per
slot, in slot order, either one :class:`TestLost` or ``[TestRetried]
TestCompleted [BillingCharged(egress)]`` - and what the bus hands
every subscriber that has no ``on_test_block`` hook.
:data:`PER_TEST_KINDS` only ever exist inside that expansion.  The
block's column groups are its :data:`OPAQUE_FIELDS`: the block never
reaches the wire format, only its expansion does.

``kind`` is a stable string identifier (``"test-completed"``, ...) so
observers can dispatch without importing every class, and so traces
stay readable after the class names refactor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (Any, ClassVar, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Tuple)

__all__ = [
    "BillingCharged",
    "CampaignEvent",
    "CampaignFinished",
    "EVENT_KINDS",
    "HourStarted",
    "NO_RESULTS",
    "OPAQUE_FIELDS",
    "PER_TEST_KINDS",
    "ResultColumns",
    "SlotColumns",
    "TestBlock",
    "TestCompleted",
    "TestLost",
    "TestRetried",
    "UploadAttempted",
    "VMPreempted",
    "VMReplaced",
    "event_payload",
]

#: Field values of these types survive into :func:`event_payload`.
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Event fields that are *deliberately* non-scalar and therefore
#: excluded from :func:`event_payload`: the column groups of a
#: :class:`TestBlock`.  Every non-scalar field must be declared here -
#: ``tests/test_engine.py`` enforces it for every event class - so a
#: payload field can never be dropped from the wire format by accident.
OPAQUE_FIELDS: FrozenSet[str] = frozenset({"slots", "results",
                                           "egress_usd"})

#: Kinds that reach subscribers only inside a :class:`TestBlock`'s
#: expansion: an observer with an ``on_test_block`` hook never sees
#: them, and so has no handler for them.
PER_TEST_KINDS: Tuple[str, ...] = ("test-retried", "test-completed")


@dataclass(frozen=True)
class CampaignEvent:
    """Base of every engine event: when it happened, simulated time."""

    kind: ClassVar[str] = "event"

    ts: float


@dataclass(frozen=True)
class HourStarted(CampaignEvent):
    """The engine is about to step every lane for one campaign hour."""

    kind: ClassVar[str] = "hour-started"

    hour_index: int


@dataclass(frozen=True)
class TestCompleted(CampaignEvent):
    """One speed test produced a usable measurement."""

    kind: ClassVar[str] = "test-completed"

    region: str
    vm_name: str
    server_id: str
    tier: str
    latency_ms: float
    download_mbps: float
    upload_mbps: float
    #: Bytes pushed during the upload phase (what egress billing sees).
    upload_bytes: float
    #: Compressed artefact bytes left on disk for the bucket upload.
    artefact_bytes: int


@dataclass(frozen=True)
class TestRetried(CampaignEvent):
    """A test needed more than one attempt before completing."""

    kind: ClassVar[str] = "test-retried"

    region: str
    vm_name: str
    server_id: str
    #: Total attempts made, including the successful one (>= 2).
    attempts: int


@dataclass(frozen=True)
class TestLost(CampaignEvent):
    """A scheduled slot produced no usable data (see ``reason``)."""

    kind: ClassVar[str] = "test-lost"

    region: str
    vm_name: str
    server_id: str
    reason: str


@dataclass(frozen=True)
class UploadAttempted(CampaignEvent):
    """One try at shipping an hour's artefacts to the bucket."""

    kind: ClassVar[str] = "upload-attempted"

    region: str
    vm_name: str
    key: str
    #: 0-based attempt number within the bounded retry budget.
    attempt: int
    ok: bool
    size_bytes: int


@dataclass(frozen=True)
class VMPreempted(CampaignEvent):
    """The provider reclaimed a lane's VM mid-campaign."""

    kind: ClassVar[str] = "vm-preempted"

    region: str
    vm_name: str
    #: Which cloud the VM belonged to ("gcp" unless a fleet is running).
    provider: str = "gcp"


@dataclass(frozen=True)
class VMReplaced(CampaignEvent):
    """A replacement VM took over a lane's assignment."""

    kind: ClassVar[str] = "vm-replaced"

    region: str
    old_name: str
    new_name: str
    #: When the replacement can serve its first full hour.
    ready_ts: float
    #: Which cloud the VM belongs to ("gcp" unless a fleet is running).
    provider: str = "gcp"


@dataclass(frozen=True)
class BillingCharged(CampaignEvent):
    """Money left the budget (``category`` matches the cost tracker)."""

    kind: ClassVar[str] = "billing-charged"

    category: str
    amount_usd: float
    #: Which cloud's cost tracker the charge landed on.
    provider: str = "gcp"


class SlotColumns(NamedTuple):
    """A lane-hour's scheduled slots, one entry each, in slot order."""

    ts: Sequence[float]
    server_ids: Sequence[str]
    #: ``None`` when the slot's test completed, else why the slot was
    #: lost (``speedtest``, ``slow-start``, ``preemption``).
    outcomes: Sequence[Optional[str]]


class ResultColumns(NamedTuple):
    """A lane-hour's completed tests, one entry each, in slot order."""

    #: When each test ran: its slot's ts plus any retry backoff.
    ts: Sequence[float]
    server_ids: Sequence[str]
    #: Attempts made, including the successful one.
    attempts: Sequence[int]
    latency_ms: Sequence[float]
    download_mbps: Sequence[float]
    upload_mbps: Sequence[float]
    download_loss_rate: Sequence[float]
    upload_loss_rate: Sequence[float]
    #: Bytes pushed during the upload phase (what egress billing sees).
    upload_bytes: Sequence[float]
    #: Compressed artefact bytes left on disk for the bucket upload.
    artefact_bytes: Sequence[int]


#: The result columns of a lane-hour that ran no test.
NO_RESULTS = ResultColumns(*[()] * len(ResultColumns._fields))


@dataclass(frozen=True)
class TestBlock(CampaignEvent):
    """One lane-hour's test slots and results, as columns.

    ``ts`` is the hour's start.  ``egress_usd`` holds each completed
    test's egress charge when the campaign bills, else ``None``.
    """

    kind: ClassVar[str] = "test-block"

    region: str
    vm_name: str
    tier: str
    #: Which cloud's cost tracker the egress charges land on.
    provider: str
    slots: SlotColumns
    results: ResultColumns
    egress_usd: Optional[Sequence[float]] = None

    def expand(self) -> List[CampaignEvent]:
        """The block as per-test events, in the order they happened."""
        events: List[CampaignEvent] = []
        region, vm_name, tier = self.region, self.vm_name, self.tier
        results = self.results
        done = 0
        for slot_ts, server_id, outcome in zip(*self.slots):
            if outcome is not None:
                events.append(TestLost(ts=slot_ts, region=region,
                                       vm_name=vm_name,
                                       server_id=server_id,
                                       reason=outcome))
                continue
            attempts = results.attempts[done]
            if attempts > 1:
                events.append(TestRetried(ts=slot_ts, region=region,
                                          vm_name=vm_name,
                                          server_id=server_id,
                                          attempts=attempts))
            ts = results.ts[done]
            events.append(TestCompleted(
                ts=ts, region=region, vm_name=vm_name, server_id=server_id,
                tier=tier, latency_ms=results.latency_ms[done],
                download_mbps=results.download_mbps[done],
                upload_mbps=results.upload_mbps[done],
                upload_bytes=results.upload_bytes[done],
                artefact_bytes=results.artefact_bytes[done]))
            if self.egress_usd is not None:
                events.append(BillingCharged(
                    ts=ts, category="egress",
                    amount_usd=self.egress_usd[done],
                    provider=self.provider))
            done += 1
        return events


@dataclass(frozen=True)
class CampaignFinished(CampaignEvent):
    """The engine stepped every lane through every hour."""

    kind: ClassVar[str] = "campaign-finished"

    n_hours: int


#: Every event kind the engine can emit, in a stable order.
EVENT_KINDS: Tuple[str, ...] = tuple(
    cls.kind for cls in (HourStarted, TestBlock, TestCompleted, TestRetried,
                         TestLost, UploadAttempted, VMPreempted, VMReplaced,
                         BillingCharged, CampaignFinished))


def event_payload(event: CampaignEvent) -> Dict[str, Any]:
    """Flatten an event to ``{"kind": ..., <scalar fields>}``.

    Opaque payload fields (anything that is not a str/int/float/bool/
    None) are dropped, so the result is always JSON-serializable and
    comparable across runs.
    """
    payload: Dict[str, Any] = {"kind": event.kind}
    for spec in fields(event):
        if spec.name in OPAQUE_FIELDS:
            continue
        value = getattr(event, spec.name)
        if isinstance(value, _SCALAR_TYPES):
            payload[spec.name] = value
    return payload
