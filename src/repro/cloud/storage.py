"""Cloud storage buckets.

CLASP compresses raw measurement artefacts (pcaps, browser captures,
traceroute warts) on the measurement VM and uploads them to a regional
bucket; the analysis VM in the same region consumes them.  We track
object names, sizes, and timestamps so the pipeline and billing behave
like the real thing, without holding artefact payloads in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..errors import StorageError, TransientUploadError
from .billing import CostTracker

__all__ = ["StorageObject", "StorageBucket", "StorageService", "UploadFaultHook"]

#: Fault hook signature: ``(bucket_name, key, attempt)`` -> fail?
UploadFaultHook = Callable[[str, str, int], bool]


@dataclass(frozen=True)
class StorageObject:
    """Metadata of one stored object."""

    key: str
    size_bytes: int
    uploaded_ts: float


class StorageBucket:
    """A named bucket pinned to a region."""

    def __init__(self, name: str, region_name: str,
                 fault_hook: Optional[UploadFaultHook] = None) -> None:
        if not name:
            raise StorageError("bucket name cannot be empty")
        self.name = name
        self.region_name = region_name
        self._objects: Dict[str, StorageObject] = {}
        self.fault_hook = fault_hook
        self._upload_attempts: Dict[str, int] = {}

    def upload(self, key: str, size_bytes: int, ts: float) -> StorageObject:
        """Store object metadata; overwrites an existing key.

        With a fault hook installed, an upload attempt may raise
        :class:`~repro.errors.TransientUploadError`; the attempt
        counter advances per call, so a bounded-retry caller re-rolls
        an independent decision each time.
        """
        if not key:
            raise StorageError("object key cannot be empty")
        if size_bytes < 0:
            raise StorageError(f"object size must be >= 0: {size_bytes}")
        if self.fault_hook is not None:
            attempt = self._upload_attempts.get(key, 0)
            self._upload_attempts[key] = attempt + 1
            if self.fault_hook(self.name, key, attempt):
                raise TransientUploadError(
                    f"upload of {key!r} to bucket {self.name} failed "
                    f"(attempt {attempt + 1})")
        return self.put(key, size_bytes, ts)

    def put(self, key: str, size_bytes: int, ts: float) -> StorageObject:
        """Store object metadata unconditionally (no fault hook).

        This is the settled-state write :meth:`upload` ends with, once
        the fault decision for the attempt has passed.
        """
        if not key:
            raise StorageError("object key cannot be empty")
        if size_bytes < 0:
            raise StorageError(f"object size must be >= 0: {size_bytes}")
        obj = StorageObject(key, int(size_bytes), ts)
        self._objects[key] = obj
        return obj

    def get(self, key: str) -> StorageObject:
        try:
            return self._objects[key]
        except KeyError:
            raise StorageError(
                f"object {key!r} not found in bucket {self.name}") from None

    def list(self, prefix: str = "") -> List[StorageObject]:
        return sorted((o for k, o in self._objects.items()
                       if k.startswith(prefix)),
                      key=lambda o: o.key)

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StorageObject]:
        return iter(self.list())

    @property
    def total_bytes(self) -> int:
        return sum(o.size_bytes for o in self._objects.values())


class StorageService:
    """Bucket management plus storage billing."""

    def __init__(self, cost_tracker: Optional[CostTracker] = None) -> None:
        self._buckets: Dict[str, StorageBucket] = {}
        self._costs = cost_tracker
        self._fault_hook: Optional[UploadFaultHook] = None

    def set_fault_hook(self, hook: Optional[UploadFaultHook]) -> None:
        """Install a deterministic upload-fault hook on every bucket."""
        self._fault_hook = hook
        for bucket in self._buckets.values():
            bucket.fault_hook = hook

    def create_bucket(self, name: str, region_name: str) -> StorageBucket:
        if name in self._buckets:
            raise StorageError(f"bucket {name!r} already exists")
        bucket = StorageBucket(name, region_name, fault_hook=self._fault_hook)
        self._buckets[name] = bucket
        return bucket

    def bucket(self, name: str) -> StorageBucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise StorageError(f"unknown bucket {name!r}") from None

    def buckets(self) -> List[StorageBucket]:
        return list(self._buckets.values())

    def charge_monthly_storage(self, months: float = 1.0) -> float:
        """Bill all buckets' current contents for *months*; returns USD."""
        if self._costs is None:
            return 0.0
        total = 0.0
        for bucket in self._buckets.values():
            total += self._costs.charge_storage(bucket.total_bytes, months)
        return total
