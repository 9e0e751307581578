"""Longitudinal measurement campaigns.

:class:`CampaignRunner` drives the hourly cron across all deployed
measurement VMs over simulated weeks/months.  The hour loop itself
lives in :class:`repro.engine.lanes.CampaignEngine`: the runner builds
one execution :class:`~repro.engine.lanes.Lane` per (plan, VM)
assignment, wires a :class:`~repro.engine.bus.EventBus` with the
dataset/billing observers (plus any caller-supplied ones), and plugs
in the :class:`LaneExecutor` that knows how to run one lane-hour -
tests, retries, artefact uploads, and preemption recovery all surface
as typed :mod:`repro.engine.events` rather than inline mutation.  A
lane-hour's tests are published as one columnar
:class:`~repro.engine.events.TestBlock`.  On the batch path the
executor reads each hour's slots and test columns from a
:class:`repro.shard.batch.BatchPlanner` instead of the lane's schedule
and the headless browser; the blocks are the same.

:class:`CampaignDataset` is the analysis-facing product: a tagged
record table plus per-server metadata (timezone, AS, business type).
It is rebuilt purely from the event stream by
:class:`~repro.engine.observers.DatasetObserver`.

With a :class:`~repro.faults.FaultPlan`, the runner also survives
injected faults: preempted VMs are re-provisioned (inheriting their
server list), slow-starting replacements and failed tests are tagged
as :class:`~repro.core.records.LostRecord` rows instead of crashing
the campaign, and bucket uploads retry with deterministic backoff.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..cloud.api import CloudPlatform
from ..cloud.tiers import NetworkTier
from ..errors import MissingEntryError, SpeedTestError, TransientUploadError
from ..engine import (NO_RESULTS, BillingCharged, CampaignEngine,
                      DatasetObserver, EventBus, Lane, MetricsObserver,
                      ResultColumns, SlotColumns, TestBlock, TestLost,
                      UploadAttempted, VMPreempted, VMReplaced)
from ..faults import FaultInjector, FaultPlan
from ..rng import SeedTree
from ..speedtest.browser import HeadlessBrowser
from ..speedtest.catalog import ServerCatalog
from ..speedtest.protocol import SpeedTestEngine
from ..units import DAY, HOUR
from .orchestrator import DeploymentPlan, Orchestrator
from .records import LostRecord, MeasurementRecord, ServerMeta
from .scheduler import HourlySchedule, TestSlot
from .tsdb import Table, TimeSeriesDB

__all__ = ["BillingObserver", "CampaignDataset", "CampaignRunner",
           "LaneExecutor"]

_FIELDS = ("download", "upload", "latency", "loss_down", "loss_up")
_TAGS = ("region", "server_id", "tier")


#: Bucket storage is charged monthly (per 30 days).
STORAGE_CHARGE_EVERY_DAYS = 30


class CampaignDataset:
    """Collected measurements plus the metadata analyses need."""

    def __init__(self, start_ts: float, end_ts: float,
                 provider: str = "gcp") -> None:
        self.start_ts = start_ts
        self.end_ts = end_ts
        #: Name of the provider the campaign ran on (export metadata;
        #: not part of the dataset digest).
        self.provider = provider
        self.db = TimeSeriesDB()
        self.table: Table = self.db.create_table("speedtest", _TAGS, _FIELDS)
        self.servers: Dict[str, ServerMeta] = {}
        self.failed_tests = 0
        self.completed_tests = 0
        self.retried_tests = 0
        self.lost: List[LostRecord] = []

    # ------------------------------------------------------------------

    def add_server_meta(self, meta: ServerMeta) -> None:
        self.servers[meta.server_id] = meta

    def server_meta(self, server_id: str) -> ServerMeta:
        try:
            return self.servers[server_id]
        except KeyError:
            raise MissingEntryError(
                f"no metadata recorded for server {server_id!r}") from None

    def record(self, rec: MeasurementRecord) -> None:
        self.extend([rec])

    def extend(self, records: Sequence[MeasurementRecord]) -> None:
        """Append processed measurements (loaders and fixtures)."""
        self.table.extend(
            [(rec.ts, (rec.region, rec.server_id, rec.tier.value),
              (rec.download_mbps, rec.upload_mbps, rec.latency_ms,
               rec.download_loss_rate, rec.upload_loss_rate))
             for rec in records])
        self.completed_tests += len(records)

    def extend_blocks(self, blocks: Sequence[Any]) -> None:
        """Append the completed tests of campaign test blocks
        (:class:`~repro.engine.events.TestBlock`) as columns: the
        hourly flush of the dataset observer."""
        table = self.table
        for block in blocks:
            region, tier, results = block.region, block.tier, block.results
            table.extend_columns(
                results.ts, [(region, server_id, tier)
                             for server_id in results.server_ids],
                (results.download_mbps, results.upload_mbps,
                 results.latency_ms, results.download_loss_rate,
                 results.upload_loss_rate))
            self.completed_tests += len(results.ts)

    def mark_lost(self, ts: float, region: str, vm_name: str,
                  server_id: str, reason: str) -> None:
        """Tag one scheduled slot as lost rather than dropping it."""
        self.lost.append(LostRecord(ts=ts, region=region, vm_name=vm_name,
                                    server_id=server_id, reason=reason))

    @property
    def lost_tests(self) -> int:
        return len(self.lost)

    def lost_by_reason(self) -> Dict[str, int]:
        """``reason -> count`` over all lost slots."""
        return dict(Counter(rec.reason for rec in self.lost))

    # ------------------------------------------------------------------
    # convenience accessors used throughout the analyses

    def pairs(self, region: Optional[str] = None,
              tier: Optional[NetworkTier] = None
              ) -> List[Tuple[str, str, str]]:
        """(region, server_id, tier) tag tuples with data."""
        out = []
        for key in self.table.tag_combinations():
            if region is not None and key[0] != region:
                continue
            if tier is not None and key[2] != tier.value:
                continue
            out.append(key)
        return out

    def series(self, region: str, server_id: str,
               tier: NetworkTier = NetworkTier.PREMIUM
               ) -> Dict[str, np.ndarray]:
        return self.table.series((region, server_id, tier.value))

    def regions(self) -> List[str]:
        return self.table.distinct("region")

    @property
    def n_days(self) -> int:
        return int(round((self.end_ts - self.start_ts) / DAY))

    def __len__(self) -> int:
        return len(self.table)


class BillingObserver:
    """Accrues campaign charges from events, publishing what each cost.

    Per-hour charges (VM uptime, the monthly storage sweep) settle at
    the *end* of each hour - i.e. when the next ``hour-started`` event
    arrives, or at ``campaign-finished`` for the final hour - because
    the set of running VMs can change mid-hour (preemption
    replacements) and historical billing charged after replacements.
    Per-upload intra-region transfer charges at its event, and is
    republished as :class:`~repro.engine.events.BillingCharged`, as are
    the hourly charges.  Per-test egress arrives priced in each test
    block's ``egress_usd`` column: the observer books it in slot order,
    one charge at a time (so a budget runs out at the same test), and
    the block's expansion carries the matching ``BillingCharged``
    events.
    """

    def __init__(self, platform: CloudPlatform, start_ts: float,
                 bus: EventBus) -> None:
        self.platform = platform
        self.bus = bus
        self._provider_name = platform.provider.name
        self._pending_hour_ts: Optional[float] = None
        self._last_storage_charge = start_ts

    def on_event(self, event: Any) -> None:
        kind = event.kind
        if kind == "hour-started":
            self._settle_pending()
            self._pending_hour_ts = event.ts
        elif kind == "campaign-finished":
            self._settle_pending()
        elif kind == "upload-attempted" and event.ok:
            usd = self.platform.costs.charge_intra_region(event.size_bytes)
            self.bus.emit(BillingCharged(ts=event.ts,
                                         category="intra_region",
                                         amount_usd=usd,
                                         provider=self._provider_name))

    def on_test_block(self, block: Any) -> None:
        self.platform.costs.book_egress(block.egress_usd)

    def _settle_pending(self) -> None:
        hour_start = self._pending_hour_ts
        if hour_start is None:
            return
        self._pending_hour_ts = None
        usd = self.platform.charge_vm_uptime(1.0)
        self.bus.emit(BillingCharged(ts=hour_start + HOUR,
                                     category="vm_hours", amount_usd=usd,
                                     provider=self._provider_name))
        if (hour_start - self._last_storage_charge
                >= STORAGE_CHARGE_EVERY_DAYS * DAY):
            usd = self.platform.storage.charge_monthly_storage(
                months=STORAGE_CHARGE_EVERY_DAYS / 30.0)
            self.bus.emit(BillingCharged(ts=hour_start + HOUR,
                                         category="storage",
                                         amount_usd=usd,
                                         provider=self._provider_name))
            self._last_storage_charge = hour_start


class LaneExecutor:
    """Runs one lane-hour and publishes everything that happened.

    This is the stepper the runner plugs into the engine.  It owns no
    state of its own - lane state lives on the
    :class:`~repro.engine.lanes.Lane`, campaign plumbing on the runner.

    Every lane-hour's slots are published as one
    :class:`~repro.engine.events.TestBlock`, built by :meth:`_emit_block`
    from one of two sources: the lane's schedule and the runner's
    headless browser, or, given a *planner*
    (:class:`repro.shard.batch.BatchPlanner`), the planner's
    precomputed hour as columns.  With *charge_billing*, the block
    carries each completed test's egress charge.
    """

    def __init__(self, runner: "CampaignRunner", bus: EventBus,
                 planner: Any = None, charge_billing: bool = False) -> None:
        self.runner = runner
        self.bus = bus
        self.planner = planner
        self.charge_billing = charge_billing
        self._provider_name = runner.platform.provider.name

    def step(self, lane: Lane, hour_start: float) -> None:
        # The slot draw happens every hour regardless of VM health so
        # the schedule stream stays aligned between fault-free and
        # faulty runs of the same seed.
        if self.planner is None:
            slots = lane.schedule.hour_slots(hour_start)
        else:
            slots = self.planner.slots_for(lane, hour_start)
        injector = self.runner.injector
        if injector is not None:
            if hour_start < lane.ready_ts:
                self._emit_block(lane, lane.vm.name, hour_start, slots,
                                 ["slow-start"] * len(slots), NO_RESULTS)
                return
            if injector.vm_preempted(lane.vm.name, hour_start):
                preempted_name = lane.vm.name
                self._replace_vm(lane, hour_start)
                self._emit_block(lane, preempted_name, hour_start, slots,
                                 ["preemption"] * len(slots), NO_RESULTS)
                return
            if self.planner is None:
                injector.prefetch_test_decisions(
                    lane.vm.name, [(slot.server_id, slot.ts)
                                   for slot in slots])
        if self.planner is None:
            outcomes, results = self._run_tests(lane, slots)
        else:
            outcomes, results = self.planner.take_block(lane)
        if injector is not None:
            injector.drop_test_decisions()
        artefact_bytes = self._emit_block(lane, lane.vm.name, hour_start,
                                          slots, outcomes, results)
        if artefact_bytes:
            self._upload_hour(lane, hour_start, artefact_bytes)

    # ------------------------------------------------------------------

    def _emit_block(self, lane: Lane, vm_name: str, hour_start: float,
                    slots: Sequence[TestSlot],
                    outcomes: Sequence[Optional[str]],
                    results: ResultColumns) -> int:
        """Publish one lane-hour as a test block; returns its artefact
        bytes.

        *outcomes* holds, per slot, ``None`` for a completed test or
        the reason the slot was lost; *results* holds the completed
        tests.
        """
        egress = None
        if self.charge_billing:
            egress = self.runner.platform.costs.prices.egress_usd_each(
                results.upload_bytes, lane.vm.tier)
        self.bus.emit(TestBlock(
            ts=hour_start, region=lane.region, vm_name=vm_name,
            tier=lane.vm.tier.value, provider=self._provider_name,
            slots=SlotColumns([slot.ts for slot in slots],
                              [slot.server_id for slot in slots], outcomes),
            results=results, egress_usd=egress))
        return sum(results.artefact_bytes)

    def _run_tests(self, lane: Lane, slots: Sequence[TestSlot]
                   ) -> Tuple[List[Optional[str]], ResultColumns]:
        """Run one VM-hour of tests through the headless browser:
        ``(per-slot outcomes, completed tests)``."""
        runner = self.runner
        outcomes: List[Optional[str]] = []
        results = ResultColumns(*[[] for _ in ResultColumns._fields])
        (test_ts, server_ids, attempts, latency, download, upload,
         loss_down, loss_up, upload_bytes, artefact_bytes) = results
        for slot in slots:
            try:
                artefacts = runner.browser.run_test(
                    lane.vm, runner.catalog.get(slot.server_id), slot.ts)
            except SpeedTestError:
                outcomes.append("speedtest")
                continue
            outcomes.append(None)
            result = artefacts.result
            test_ts.append(result.ts)
            server_ids.append(slot.server_id)
            attempts.append(artefacts.attempts)
            latency.append(result.latency_ms)
            download.append(result.download_mbps)
            upload.append(result.upload_mbps)
            loss_down.append(result.download_loss_rate)
            loss_up.append(result.upload_loss_rate)
            upload_bytes.append(result.upload_bytes)
            artefact_bytes.append(artefacts.upload_size_bytes)
        return outcomes, results

    def _replace_vm(self, lane: Lane, hour_start: float) -> None:
        """Re-provision a preempted lane VM and record its ready time.

        The replacement inherits the old VM's server assignment via
        :meth:`Orchestrator.replace_vm`.  It becomes usable only after
        a deterministic slow-start delay; hours before that are tagged
        ``slow-start`` by :meth:`step`.
        """
        runner = self.runner
        old_vm = lane.vm
        provider_name = self._provider_name
        runner.platform.preempt_vm(old_vm.name, hour_start)
        self.bus.emit(VMPreempted(ts=hour_start, region=lane.region,
                                  vm_name=old_vm.name,
                                  provider=provider_name))
        replacement = runner.orchestrator.replace_vm(
            lane.plan, old_vm, hour_start,
            name=lane.next_replacement_name())
        lane.vm = replacement
        extra_hours = runner.injector.slow_start_hours(replacement.name,
                                                       hour_start)
        lane.ready_ts = hour_start + (1 + extra_hours) * HOUR
        self.bus.emit(VMReplaced(ts=hour_start, region=lane.region,
                                 old_name=old_vm.name,
                                 new_name=replacement.name,
                                 ready_ts=lane.ready_ts,
                                 provider=provider_name))

    def _upload_hour(self, lane: Lane, hour_start: float,
                     artefact_bytes: int) -> None:
        """Ship the hour's compressed artefacts, retrying with backoff.

        Every try - success or transient failure - is published as an
        :class:`~repro.engine.events.UploadAttempted` event, so billing
        and tests can account for exhausted-retry hours (which produce
        exactly one ``upload`` loss and no intra-region charge).
        """
        runner = self.runner
        upload_ts = lane.schedule.upload_ts(hour_start)
        attempts = 1
        if runner.injector is not None:
            attempts = runner.injector.plan.max_retries + 1
        key = f"{lane.vm.name}/{int(hour_start)}.tar.gz"
        bucket = lane.plan.bucket
        ts = upload_ts
        for attempt in range(attempts):
            try:
                bucket.upload(key=key, size_bytes=artefact_bytes, ts=ts)
            except TransientUploadError:
                self.bus.emit(UploadAttempted(
                    ts=ts, region=lane.region, vm_name=lane.vm.name,
                    key=key, attempt=attempt, ok=False,
                    size_bytes=artefact_bytes))
                if runner.injector is not None:
                    ts = ts + runner.injector.backoff_s(attempt)
                continue
            self.bus.emit(UploadAttempted(
                ts=ts, region=lane.region, vm_name=lane.vm.name,
                key=key, attempt=attempt, ok=True,
                size_bytes=artefact_bytes))
            return
        self.bus.emit(TestLost(ts=upload_ts, region=lane.region,
                               vm_name=lane.vm.name, server_id="*",
                               reason="upload"))


class CampaignRunner:
    """Executes deployment plans hour by hour.

    When given an enabled :class:`~repro.faults.FaultPlan`, the runner
    builds a seed-derived :class:`~repro.faults.FaultInjector` and wires
    its fault streams into the speed-test engine, the storage service,
    and the link-state evaluator, and recovers from every injected fault
    kind: the campaign always completes, with unusable hour slots tagged
    in ``dataset.lost``.
    """

    def __init__(self, platform: CloudPlatform, catalog: ServerCatalog,
                 engine: SpeedTestEngine, seeds: SeedTree,
                 fault_plan: Optional[FaultPlan],
                 orchestrator: Orchestrator) -> None:
        self.platform = platform
        self.catalog = catalog
        self.engine = engine
        self._seeds = seeds
        self.injector: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.enabled:
            self.injector = FaultInjector(fault_plan,
                                          self._seeds.child("faults"))
        self.orchestrator = orchestrator
        if self.injector is not None:
            plan = self.injector.plan
            self.browser = HeadlessBrowser(engine,
                                           max_retries=plan.max_retries,
                                           backoff=self.injector.backoff_s)
            self._wire_injector()
        else:
            self.browser = HeadlessBrowser(engine)

    def _wire_injector(self) -> None:
        """Attach the injector's fault streams to every injection site."""
        assert self.injector is not None
        self.engine.injector = self.injector
        self.platform.storage.set_fault_hook(self.injector.upload_fails)
        self.platform.evaluator.set_flap_hook(
            self.injector.link_flap_utilization)

    # ------------------------------------------------------------------

    def build_lanes(self, plans: Sequence[DeploymentPlan],
                    start_ts: float) -> List[Lane]:
        """One independent execution lane per (plan, VM) assignment."""
        lanes = []
        for plan in plans:
            for vm, server_ids in plan.assignments:
                lanes.append(Lane(
                    name=vm.name,
                    region=plan.region,
                    schedule=HourlySchedule(
                        vm.name, server_ids,
                        seeds=self._seeds.child(f"sched-{vm.name}")),
                    vm=vm,
                    ready_ts=start_ts,
                    plan=plan))
        return lanes

    def register_metadata(self, dataset: CampaignDataset,
                          plans: Sequence[DeploymentPlan]) -> None:
        topo = self.platform.topology
        for plan in plans:
            for server_id in plan.server_ids:
                if server_id in dataset.servers:
                    continue
                server = self.catalog.get(server_id)
                city = topo.cities[server.city_key]
                dataset.add_server_meta(ServerMeta(
                    server_id=server.server_id,
                    asn=server.asn,
                    sponsor=server.sponsor,
                    city_key=server.city_key,
                    country=server.country,
                    utc_offset_hours=city.utc_offset_hours,
                    lat=server.lat,
                    lon=server.lon,
                    business_type=topo.as_of(server.asn)
                    .as_type.ipinfo_label,
                ))

    # ------------------------------------------------------------------

    def run(self, plans: Sequence[DeploymentPlan], days: int,
            start_ts: float, charge_billing: bool,
            observers: Sequence[Any], batch: bool) -> CampaignDataset:
        """Run the whole campaign and return the dataset.

        The body is pure composition: build the lanes, wire the bus
        (dataset observer, billing observer when *charge_billing*, the
        obs metrics mirror, then the caller's *observers* - registration
        order is dispatch order), and hand the hour loop to the engine,
        whose constructor checks the shape before any lane steps.  With
        *batch*, a :class:`repro.shard.batch.BatchPlanner` precomputes
        each hour's tests as numpy batches; the dataset is byte-identical
        either way.  With an injector attached, faults never abort the
        run: lost hour slots are tagged in ``dataset.lost`` and
        preempted VMs are replaced in place (same server list, fresh
        name).
        """
        dataset = CampaignDataset(start_ts, start_ts + days * DAY,
                                  provider=self.platform.provider.name)
        self.register_metadata(dataset, plans)
        bus = EventBus()
        bus.subscribe(DatasetObserver(dataset))
        if charge_billing:
            bus.subscribe(BillingObserver(self.platform, start_ts, bus))
        if obs.enabled():
            # Campaign events land in the same process-wide snapshot
            # as the layer instrumentation (engine.* metric names).
            bus.subscribe(MetricsObserver(registry=obs.registry()))
        for observer in observers:
            bus.subscribe(observer)
        lanes = self.build_lanes(plans, start_ts)
        planner = None
        if batch:
            # Lazy, so the core layer has no module-level dependency
            # on the shard layer built on top of it.
            from ..shard.batch import BatchPlanner
            planner = BatchPlanner(self, lanes)
        engine = CampaignEngine(lanes=lanes,
                                stepper=LaneExecutor(self, bus, planner,
                                                     charge_billing),
                                bus=bus, start_ts=start_ts,
                                n_hours=days * 24)
        with obs.span("campaign.run"):
            engine.run()
        return dataset
