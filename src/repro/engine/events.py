"""The campaign event taxonomy.

Every operational fact the engine knows is published as one of the
frozen dataclasses below.  Events are plain data: strings, numbers,
booleans - plus at most one opaque ``record`` payload that observers
outside the engine may understand (the engine itself never looks
inside it).  :func:`event_payload` flattens an event to its
JSON-serializable fields, which is the wire format the trace observer
writes and what tests compare across runs.

``kind`` is a stable string identifier (``"test-completed"``, ...) so
observers can dispatch without importing every class, and so traces
stay readable after the class names refactor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, FrozenSet, Tuple

__all__ = [
    "BillingCharged",
    "CampaignEvent",
    "CampaignFinished",
    "EVENT_KINDS",
    "HourStarted",
    "OPAQUE_FIELDS",
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
#: excluded from :func:`event_payload`.  Every non-scalar field must be
#: declared here - ``tests/test_engine.py`` enforces it for every event
#: class - so a payload field can never be dropped from the wire format
#: by accident.
OPAQUE_FIELDS: FrozenSet[str] = frozenset({"record"})


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
    """One speed test produced a usable measurement.

    ``record`` carries the processed measurement object for dataset
    observers; the engine treats it as opaque and it is excluded from
    :func:`event_payload`.
    """

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
    record: Any = None


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


@dataclass(frozen=True)
class CampaignFinished(CampaignEvent):
    """The engine stepped every lane through every hour."""

    kind: ClassVar[str] = "campaign-finished"

    n_hours: int


#: Every event kind the engine can emit, in a stable order.
EVENT_KINDS: Tuple[str, ...] = tuple(
    cls.kind for cls in (HourStarted, TestCompleted, TestRetried, TestLost,
                         UploadAttempted, VMPreempted, VMReplaced,
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
