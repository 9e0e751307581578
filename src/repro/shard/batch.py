"""Vectorized per-hour pre-computation of an hour's speed tests.

The scalar hot path runs one Python call chain per test: schedule draw,
browser retry loop, two path evaluations (~20 link observations each),
the TCP model, and the noise draws.  :class:`BatchPlanner` replays the
*exact same* decision sequence for a whole hour up front - consuming
each lane's RNG streams in the order the scalar path would - then
evaluates every needed link observation as ONE flat numpy batch across
all links (per-element link parameters, :func:`_observe_flat`) and all
of the hour's TCP transfers as one batch laid out by shared bottleneck
link (:mod:`repro.shard.vectcp` twins).

Two structural savings over the scalar path, both value-neutral:

* **Observation dedup.** The ingress evaluation's reverse path is the
  egress evaluation's forward path (both directions share the same two
  cached routes), so each ``(link, direction, ts)`` point is computed
  once and read twice instead of observed twice.
* **Flat vectorization.** Every link observation the hour needs - all
  links, both directions - runs through the vectcp twins as a single
  parameter-matrix batch instead of one Python call (or even one small
  numpy call) per link.

:class:`BatchLaneExecutor` plugs the planner into the campaign through
the two :class:`~repro.core.campaign.LaneExecutor` seams and the
engine's ``hour_hook``; the event protocol, retry accounting, and
dataset bytes are identical to the scalar path (asserted against the
golden digests by ``tests/test_shard.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..cloud.api import Direction
from ..core.campaign import LaneExecutor
from ..core.scheduler import TestSlot
from ..engine.lanes import Lane
from ..errors import SpeedTestError, ValidationError
from ..netsim.linkstate import _FLOOR_LOSS, _QUEUE_BASE_MS, _QUEUE_CAP_MS
from ..netsim.pathmodel import PathMetrics
from ..netsim.traffic import UtilizationModel
from ..speedtest.browser import (BrowserArtifacts, _CAPTURE_OVERHEAD_BYTES,
                                 _PCAP_FRACTION)
from ..speedtest.protocol import SpeedTestResult
from ..units import HOUR, transferred_bytes
from .vectcp import (batch_loss_rate, batch_mean_utilization_grid,
                     batch_multiflow_throughput_mbps, batch_queue_delay_ms,
                     batch_residual_mbps)

__all__ = ["BatchLaneExecutor", "BatchPlanner", "batch_executor_factory"]

#: Outcome sentinel: every attempt of the slot failed (protocol failure,
#: injected failure, or truncation) - the stepper re-raises.
_FAILED = object()


class _Job:
    """One test that will complete, with its pre-drawn noise."""

    __slots__ = ("lane", "slot", "ts", "attempts", "server", "jitter",
                 "down_short", "down_wiggle", "up_short", "up_wiggle",
                 "route_in", "route_eg", "rtt_eg", "down_tcp", "up_tcp",
                 "down_loss", "up_loss", "rtt_in")


class _Transfer:
    """One bulk phase (down or up) awaiting its batched TCP evaluation."""

    __slots__ = ("job", "phase", "rtt_ms", "eff_loss", "flows", "avail",
                 "bottleneck")

    def __init__(self, job: _Job, phase: str, rtt_ms: float, eff_loss: float,
                 flows: int, avail: float, bottleneck: int) -> None:
        self.job = job
        self.phase = phase
        self.rtt_ms = rtt_ms
        self.eff_loss = eff_loss
        self.flows = flows
        self.avail = avail
        self.bottleneck = bottleneck


class BatchPlanner:
    """Precomputes one hour of test outcomes for a set of lanes.

    The planner must replicate, call for call, every RNG consumption
    the scalar path makes on a lane's streams: the schedule draw, then
    per slot the browser retry loop (failure draw before the injector
    checks, no further draws on a failed attempt) and, on success, the
    latency jitter and the four bulk-noise draws.  The stream state
    after a planned hour is therefore byte-identical to the scalar
    hour, which is what makes batch-on/batch-off runs interchangeable
    mid-campaign.
    """

    def __init__(self, runner: Any) -> None:
        self.runner = runner
        self._slots: Dict[Tuple[str, float], List[TestSlot]] = {}
        self._outcomes: Dict[Tuple[str, int], Any] = {}
        self._planned_hour: Optional[float] = None
        self._prop_ms: Dict[int, float] = {}
        self._burst_survive: Dict[int, float] = {}
        self._link_rows: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # stepper-facing accessors

    @property
    def active(self) -> bool:
        return self._planned_hour is not None

    def slots_for(self, lane: Lane,
                  hour_start: float) -> Optional[List[TestSlot]]:
        """The hour's pre-drawn slots, or None when the hour is unplanned."""
        return self._slots.get((lane.name, hour_start))

    def take_outcome(self, lane: Lane, slot: TestSlot) -> Any:
        """Pop the precomputed outcome of one slot (planned hours only).

        Raising on a miss (rather than silently falling back to the
        scalar path) matters: a scalar re-run would consume the lane's
        RNG stream a second time and desynchronise every later draw.
        """
        try:
            return self._outcomes.pop((lane.name, slot.slot_index))
        except KeyError:
            raise ValidationError(
                f"batch planner has no outcome for lane {lane.name!r} "
                f"slot {slot.slot_index} at ts {slot.ts}") from None

    # ------------------------------------------------------------------

    def plan_hour(self, lanes: Sequence[Lane], hour_start: float) -> None:
        """Precompute outcomes for every runnable lane-slot this hour."""
        self._slots.clear()
        self._outcomes.clear()
        self._planned_hour = hour_start
        with obs.span("shard.plan_hour", layer="shard", sim_ts=hour_start,
                      n_lanes=len(lanes)) as sp:
            jobs = self._rng_prepass(lanes, hour_start)
            if jobs:
                self._evaluate(jobs)
            sp.annotate(n_jobs=len(jobs))
        obs.inc("shard.hours_planned")

    # ------------------------------------------------------------------
    # phase 1: replicate the scalar RNG consumption

    def _rng_prepass(self, lanes: Sequence[Lane],
                     hour_start: float) -> List[_Job]:
        runner = self.runner
        engine = runner.engine
        cfg = engine.config
        browser = runner.browser
        injector = runner.injector
        jobs: List[_Job] = []
        for lane in lanes:
            slots = lane.schedule.hour_slots(hour_start)
            self._slots[(lane.name, hour_start)] = slots
            if injector is not None:
                if hour_start < lane.ready_ts:
                    continue
                if injector.vm_preempted(lane.vm.name, hour_start):
                    continue
            vm = lane.vm
            rng = engine.stream_for(vm.name)
            for slot in slots:
                server = runner.catalog.get(slot.server_id)
                job: Optional[_Job] = None
                for attempt in range(browser.max_retries + 1):
                    attempt_ts = slot.ts
                    if attempt and browser.backoff is not None:
                        attempt_ts = slot.ts + browser.backoff(attempt - 1)
                    # The protocol's outright-failure draw happens before
                    # the injector checks, and a failed attempt consumes
                    # no further randomness.
                    if rng.random() < cfg.failure_rate:
                        continue
                    if engine.injector is not None:
                        if engine.injector.speedtest_fails(
                                vm.name, server.server_id, attempt_ts):
                            continue
                        if engine.injector.truncation_fraction(
                                vm.name, server.server_id,
                                attempt_ts) is not None:
                            continue
                    job = _Job()
                    job.lane = lane
                    job.slot = slot
                    job.ts = attempt_ts
                    job.attempts = attempt + 1
                    job.server = server
                    job.jitter = rng.exponential(cfg.ping_jitter_ms,
                                                 size=cfg.ping_count)
                    job.down_short = rng.normal(0.0, cfg.noise_sigma)
                    job.down_wiggle = rng.normal(0.0, cfg.noise_sigma * 0.25)
                    job.up_short = rng.normal(0.0, cfg.noise_sigma)
                    job.up_wiggle = rng.normal(0.0, cfg.noise_sigma * 0.25)
                    break
                if job is None:
                    self._outcomes[(lane.name, slot.slot_index)] = _FAILED
                else:
                    jobs.append(job)
        return jobs

    # ------------------------------------------------------------------
    # phase 2: batched path + TCP evaluation, scalar result assembly

    def _evaluate(self, jobs: List[_Job]) -> None:
        runner = self.runner
        platform = runner.engine.platform
        topo = platform.topology
        evaluator = platform.evaluator
        cfg = runner.engine.config

        # Unique (link_id, direction, ts) observation points across the
        # hour, grouped per link direction for vectorized evaluation.
        index: Dict[Tuple[int, int, float], int] = {}
        groups: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
        for job in jobs:
            job.route_in, job.route_eg = platform.route_pair(
                job.lane.vm, job.server.host_pop_id, Direction.INGRESS)
            for route in (job.route_in, job.route_eg):
                for link_id, direction in route.links:
                    key = (link_id, direction, job.ts)
                    if key not in index:
                        index[key] = len(index)
                        groups.setdefault((link_id, direction), []).append(
                            (index[key], job.ts))
        n_points = len(index)
        loss = np.empty(n_points)
        queue = np.empty(n_points)
        residual = np.empty(n_points)
        if n_points:
            self._observe_flat(groups, topo, evaluator, loss, queue,
                               residual)
        obs.inc("shard.link_observations", float(n_points))

        # Scalar per-job assembly in the exact float-op order of
        # PathPerformanceModel.evaluate, collecting bulk transfers for
        # the bottleneck-grouped TCP batch.
        transfers: List[_Transfer] = []
        for job in jobs:
            in_qsum, in_survive, in_avail, in_bneck = self._route_stats(
                job.route_in, job.ts, index, loss, queue, residual)
            eg_qsum, eg_survive, eg_avail, eg_bneck = self._route_stats(
                job.route_eg, job.ts, index, loss, queue, residual)
            prop_in = self._prop(job.route_in, topo)
            prop_eg = self._prop(job.route_eg, topo)
            burst_in = self._burst_loss(job.route_in, topo)
            burst_eg = self._burst_loss(job.route_eg, topo)

            # rtt = fwd_prop + rev_prop + sum(fwd queues) + sum(rev queues)
            job.rtt_in = prop_in + prop_eg + in_qsum + eg_qsum
            job.rtt_eg = prop_eg + prop_in + eg_qsum + in_qsum
            loss_in = min(0.95, max(0.0, 1.0 - in_survive))
            loss_eg = min(0.95, max(0.0, 1.0 - eg_survive))
            eff_in = min(0.95, loss_in
                         + PathMetrics.BURST_TCP_WEIGHT * burst_in)
            eff_eg = min(0.95, loss_eg
                         + PathMetrics.BURST_TCP_WEIGHT * burst_eg)
            job.down_loss = min(0.95, 1.0 - (1.0 - loss_in)
                                * (1.0 - burst_in))
            job.up_loss = min(0.95, 1.0 - (1.0 - loss_eg)
                              * (1.0 - burst_eg))
            transfers.append(_Transfer(job, "down", job.rtt_in, eff_in,
                                       cfg.flows_for_rtt(job.rtt_in),
                                       in_avail, in_bneck))
            transfers.append(_Transfer(job, "up", job.rtt_eg, eff_eg,
                                       cfg.flows_for_rtt(job.rtt_eg),
                                       eg_avail, eg_bneck))

        self._run_tcp_batches(transfers)
        for job in jobs:
            self._finish_job(job, cfg)

    def _run_tcp_batches(self, transfers: List[_Transfer]) -> None:
        """Evaluate all bulk transfers as one flat TCP batch.

        Transfers are laid out grouped by bottleneck link (the sort is
        stable, so transfers sharing a contended link sit contiguously)
        and the whole hour goes through the closed-form model in a
        single elementwise call - per-element results are independent
        of batch composition, so the layout is a locality choice, not a
        correctness one.
        """
        if not transfers:
            return
        transfers = sorted(transfers, key=lambda t: t.bottleneck)
        n = len(transfers)
        rtt = np.fromiter((t.rtt_ms for t in transfers), dtype=np.float64,
                          count=n)
        eff = np.fromiter((t.eff_loss for t in transfers),
                          dtype=np.float64, count=n)
        flows = np.fromiter((t.flows for t in transfers), dtype=np.int64,
                            count=n)
        avail = np.fromiter((t.avail for t in transfers),
                            dtype=np.float64, count=n)
        aggregate = batch_multiflow_throughput_mbps(rtt, eff, flows, avail)
        mirror = obs.enabled()
        for i, transfer in enumerate(transfers):
            value = float(aggregate[i])
            job = transfer.job
            if transfer.phase == "down":
                job.down_tcp = value
            else:
                job.up_tcp = value
            if mirror:
                obs.inc("netsim.tcp.transfers")
                obs.observe("netsim.tcp.throughput_mbps", value)

    def _finish_job(self, job: _Job, cfg: Any) -> None:
        """Assemble the final result with the scalar protocol arithmetic."""
        vm = job.lane.vm
        server_cap = job.server.effective_cap_mbps
        latency_ms = float(np.min(job.rtt_eg + job.jitter))
        down_mbps = self._bulk_phase(job.down_tcp, vm.nic.ingress_cap_mbps(),
                                     server_cap, vm, job.down_short,
                                     job.down_wiggle)
        up_mbps = self._bulk_phase(job.up_tcp, vm.nic.egress_cap_mbps(),
                                   server_cap, vm, job.up_short,
                                   job.up_wiggle)
        down_bytes = transferred_bytes(down_mbps, cfg.download_duration_s)
        up_bytes = transferred_bytes(up_mbps, cfg.upload_duration_s)
        duration = (cfg.download_duration_s + cfg.upload_duration_s
                    + 0.2 * cfg.ping_count + 3.0)
        cpu = vm.machine_type.cpu_utilization_during_test(
            max(down_mbps, up_mbps))
        result = SpeedTestResult(
            server_id=job.server.server_id,
            vm_name=vm.name,
            ts=job.ts,
            latency_ms=round(latency_ms, 2),
            download_mbps=round(down_mbps, 2),
            upload_mbps=round(up_mbps, 2),
            download_loss_rate=job.down_loss,
            upload_loss_rate=job.up_loss,
            download_bytes=down_bytes,
            upload_bytes=up_bytes,
            duration_s=duration,
            cpu_utilization=cpu,
        )
        artefacts = BrowserArtifacts(
            result=result,
            pcap_bytes=int(result.total_bytes * _PCAP_FRACTION),
            capture_bytes=_CAPTURE_OVERHEAD_BYTES,
            attempts=job.attempts,
        )
        self._outcomes[(job.lane.name, job.slot.slot_index)] = artefacts

    @staticmethod
    def _bulk_phase(tcp_mbps: float, endpoint_cap: float, server_cap: float,
                    vm: Any, shortfall_draw: float, wiggle: float) -> float:
        rate = min(tcp_mbps, endpoint_cap, server_cap)
        rate = min(rate, vm.machine_type.cpu_throughput_cap_mbps)
        shortfall = abs(shortfall_draw)
        factor = max(0.05, min(1.0, 1.0 - shortfall + wiggle))
        return max(0.05, rate * factor)

    # ------------------------------------------------------------------
    # flat link-state evaluation

    def _link_row(self, link: Any, direction: int,
                  model: UtilizationModel) -> tuple:
        """Per-(link, direction) parameter row for the flat batch.

        ``(capacity, loss_floor, queue_base, queue_cap, base,
        weekend_factor, utc_offset_hours, noise_sigma, bumps, noise)``
        - the first eight are the float columns of the parameter
        matrix, *bumps* is the profile's ``(center, width, amplitude)``
        triples, *noise* the model's hourly realisation (or None).
        Profiles and capacities are fixed after generation, so the row
        is cached for the planner's lifetime.
        """
        key = (link.link_id, direction)
        row = self._link_rows.get(key)
        if row is None:
            profile = model.profile(link.link_id, direction)
            noise = (model.noise_array(link.link_id, direction)
                     if profile.noise_sigma > 0 else None)
            bumps = tuple((b.center_hour, b.width_hours, b.amplitude)
                          for b in profile.bumps)
            row = (link.capacity_mbps, _FLOOR_LOSS[link.kind],
                   _QUEUE_BASE_MS[link.kind], _QUEUE_CAP_MS[link.kind],
                   profile.base, profile.weekend_factor,
                   profile.utc_offset_hours, profile.noise_sigma,
                   bumps, noise)
            self._link_rows[key] = row
        return row

    def _observe_flat(self, groups: Dict[Tuple[int, int],
                                         List[Tuple[int, float]]],
                      topo: Any, evaluator: Any, loss: np.ndarray,
                      queue: np.ndarray, residual: np.ndarray) -> None:
        """Evaluate every observation point of the hour as ONE batch.

        The whole hour - every link, both directions - is laid out
        group-contiguously, per-link parameters are expanded into
        aligned columns (``np.repeat`` over the group parameter
        matrix), and the vectcp twins run once over the full batch.
        Only the two inherently per-link pieces stay in a Python loop:
        the hourly-noise gather (one contiguous slice per group) and
        the flap hook (hour-granular RNG decisions).  Results scatter
        back into *loss*/*queue*/*residual* through the original flat
        index, so :meth:`_route_stats` is layout-agnostic.
        """
        model = evaluator.utilization_model
        hook = evaluator.flap_hook
        rows: List[tuple] = []
        counts: List[int] = []
        slices: List[Tuple[tuple, int, int, int, int]] = []
        pos = 0
        for (link_id, direction), points in groups.items():
            row = self._link_row(topo.link(link_id), direction, model)
            n = len(points)
            rows.append(row)
            counts.append(n)
            slices.append((row, pos, pos + n, link_id, direction))
            pos += n
        perm = np.fromiter((p[0] for points in groups.values()
                            for p in points), dtype=np.int64, count=pos)
        ts = np.fromiter((p[1] for points in groups.values()
                          for p in points), dtype=np.float64, count=pos)
        n_bumps = max(len(row[8]) for row in rows)
        pad = (0.0, 1.0, 0.0)  # amplitude-0 bump: contributes exact +0.0
        mat = np.array([row[:8]
                        + sum(row[8], ())
                        + pad * (n_bumps - len(row[8]))
                        for row in rows])
        expanded = np.repeat(mat, np.asarray(counts), axis=0)

        mean = batch_mean_utilization_grid(
            ts, expanded[:, 4], expanded[:, 5], expanded[:, 6],
            expanded[:, 8::3], expanded[:, 9::3], expanded[:, 10::3])
        noise = np.zeros(ts.shape)
        hour_idx = (np.floor_divide(ts - model.origin_ts, HOUR)
                    .astype(np.int64) % UtilizationModel.NOISE_HOURS)
        for row, start, stop, _link_id, _direction in slices:
            arr = row[9]
            if arr is None:
                continue
            noise[start:stop] = arr[hour_idx[start:stop]]
        u = np.where(expanded[:, 7] > 0,
                     np.maximum(0.0, mean + noise), mean)

        if hook is not None:
            for row, start, stop, link_id, direction in slices:
                seg_ts = ts[start:stop]
                seg_u = u[start:stop]
                hours = np.floor_divide(seg_ts, HOUR)
                for hour in np.unique(hours):
                    in_hour = hours == hour
                    floor = hook(link_id, direction,
                                 float(seg_ts[in_hour][0]))
                    if floor is not None:
                        seg_u[in_hour] = np.maximum(seg_u[in_hour], floor)

        residual[perm] = batch_residual_mbps(expanded[:, 0], u)
        loss[perm] = batch_loss_rate(u, floor=expanded[:, 1])
        queue[perm] = batch_queue_delay_ms(u, base=expanded[:, 2],
                                           cap=expanded[:, 3])

    # ------------------------------------------------------------------
    # per-route helpers

    def _route_stats(self, route: Any, ts: float,
                     index: Dict[Tuple[int, int, float], int],
                     loss: np.ndarray, queue: np.ndarray,
                     residual: np.ndarray
                     ) -> Tuple[float, float, float, int]:
        """(queue sum, survival product, min residual, bottleneck link).

        Iterates links in route order with the scalar path's exact
        accumulation order; the bottleneck keeps the *first* strict
        minimum, matching ``min()`` over the observation list.
        """
        q_sum = 0.0
        survive = 1.0
        avail = float("inf")
        bottleneck = -1
        for link_id, direction in route.links:
            flat = index[(link_id, direction, ts)]
            q_sum += float(queue[flat])
            survive *= (1.0 - float(loss[flat]))
            r = float(residual[flat])
            if r < avail:
                avail = r
                bottleneck = link_id
        return q_sum, survive, avail, bottleneck

    def _prop(self, route: Any, topo: Any) -> float:
        value = self._prop_ms.get(id(route))
        if value is None:
            # Routes live in the platform's route cache for the process
            # lifetime, so id() is a stable key.
            value = route.propagation_delay_ms(topo)
            self._prop_ms[id(route)] = value
        return value

    def _burst_loss(self, route: Any, topo: Any) -> float:
        """The route's (static) clamped burst loss, cached per route."""
        value = self._burst_survive.get(id(route))
        if value is None:
            burst_survive = 1.0
            for link_id, _direction in route.links:
                burst_survive *= (1.0 - topo.link(link_id).burst_loss)
            value = min(0.95, max(0.0, 1.0 - burst_survive))
            self._burst_survive[id(route)] = value
        return value


class BatchLaneExecutor(LaneExecutor):
    """A :class:`LaneExecutor` that serves pre-batched hour outcomes.

    ``attach_engine`` (called by :meth:`CampaignRunner.run`) installs
    the planner on the engine's ``hour_hook``; from then on every hour
    is precomputed in one vectorized pass and the two executor seams
    serve cached slots and outcomes.  Without
    an engine attached the executor degrades to the scalar path.
    """

    def __init__(self, runner: Any, bus: Any) -> None:
        super().__init__(runner, bus)
        self.planner = BatchPlanner(runner)
        self._engine: Any = None

    def attach_engine(self, engine: Any) -> None:
        self._engine = engine
        engine.hour_hook = self._plan_hour

    def _plan_hour(self, hour_start: float, hour_index: int) -> None:
        self.planner.plan_hour(self._engine.lanes, hour_start)

    # ------------------------------------------------------------------
    # seams

    def _hour_slots(self, lane: Lane, hour_start: float):
        slots = self.planner.slots_for(lane, hour_start)
        if slots is None:
            return super()._hour_slots(lane, hour_start)
        return slots

    def _run_slot_test(self, lane: Lane, slot: TestSlot):
        if not self.planner.active:
            return super()._run_slot_test(lane, slot)
        outcome = self.planner.take_outcome(lane, slot)
        if outcome is _FAILED:
            obs.inc("speedtest.failures")
            raise SpeedTestError(
                f"test from {lane.vm.name} to {slot.server_id} failed "
                f"(all attempts, batched)")
        obs.inc("speedtest.tests")
        obs.observe("speedtest.download_mbps", outcome.result.download_mbps)
        return outcome


def batch_executor_factory(runner: Any, bus: Any) -> BatchLaneExecutor:
    """``executor_factory`` for :meth:`repro.core.campaign.CampaignRunner.run`."""
    return BatchLaneExecutor(runner, bus)
