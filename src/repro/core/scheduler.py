"""Hourly measurement scheduling.

Measurement VMs run the experiment as an hourly cron job.  Within each
hour a VM runs its assigned tests one at a time (to avoid tests
interfering with each other), in an order re-randomised every hour to
decorrelate any periodic system events from specific servers.  Each
test occupies a 120-second slot; traceroutes and the result upload
take the tail of the hour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from ..errors import SchedulingError
from ..rng import SeedTree
from ..units import HOUR, MINUTE
from .orchestrator import TESTS_PER_VM_HOUR

__all__ = ["TestSlot", "HourlySchedule"]

#: Seconds reserved per test (the paper's per-test budget).
TEST_SLOT_S = 120
#: Tail-of-hour budgets.
TRACEROUTE_BUDGET_S = 20 * MINUTE
UPLOAD_BUDGET_S = 5 * MINUTE


@dataclass(frozen=True)
class TestSlot:
    """One scheduled test: which server, exactly when."""

    ts: float
    vm_name: str
    server_id: str
    slot_index: int


class HourlySchedule:
    """Generates randomized per-hour test orders for one VM."""

    def __init__(self, vm_name: str, server_ids: Sequence[str],
                 seeds: Optional[SeedTree] = None) -> None:
        if not server_ids:
            raise SchedulingError(f"VM {vm_name} has no servers to test")
        if len(server_ids) > TESTS_PER_VM_HOUR:
            raise SchedulingError(
                f"VM {vm_name} assigned {len(server_ids)} servers; at most "
                f"{TESTS_PER_VM_HOUR} tests fit in an hour")
        if len(set(server_ids)) != len(server_ids):
            raise SchedulingError(
                f"VM {vm_name} has duplicate servers in its list")
        self.vm_name = vm_name
        self.server_ids = list(server_ids)
        self._rng = (seeds or SeedTree(0)).generator(
            f"schedule-{vm_name}")

    def hour_slots(self, hour_start_ts: float) -> List[TestSlot]:
        """The randomized slots for the hour starting at *hour_start_ts*.

        Raises when not aligned to an hour boundary: cron fires on the
        hour, and misaligned schedules corrupt day/hour bucketing.
        """
        if hour_start_ts % HOUR != 0:
            raise SchedulingError(
                f"hour_start_ts {hour_start_ts} is not hour-aligned")
        order = self._rng.permutation(len(self.server_ids)).tolist()
        # A few seconds of cron/browser startup jitter per slot, in one
        # draw: the values and the stream state of one draw per slot.
        jitters = self._rng.uniform(1.0, 8.0, size=len(order)).tolist()
        return [TestSlot(ts=hour_start_ts + slot_index * TEST_SLOT_S + jitter,
                         vm_name=self.vm_name,
                         server_id=self.server_ids[server_idx],
                         slot_index=slot_index)
                for slot_index, (server_idx, jitter)
                in enumerate(zip(order, jitters))]

    def traceroute_window(self, hour_start_ts: float) -> float:
        """When the post-test traceroute phase begins."""
        return hour_start_ts + len(self.server_ids) * TEST_SLOT_S

    def upload_ts(self, hour_start_ts: float) -> float:
        """When results are shipped to the bucket."""
        return (self.traceroute_window(hour_start_ts)
                + TRACEROUTE_BUDGET_S)
