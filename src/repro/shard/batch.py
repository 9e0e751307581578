"""Vectorized per-hour pre-computation of an hour's speed tests.

The scalar hot path runs one Python call chain per test: schedule draw,
browser retry loop, two path evaluations (~20 link observations each),
the TCP model, and the noise draws.  :class:`BatchPlanner` replays the
*exact same* decision sequence for a whole hour up front - consuming
each lane's RNG streams in the order the scalar path would - then
evaluates the hour as a handful of array operations through the
:mod:`repro.shard.vectcp` twins:

* **Static tables.** Each ``(link, direction)`` owns one row of a float
  parameter table (capacity, loss floor, queue base and cap, profile
  base, weekend factor, UTC offset, noise sigma, padded bump triples),
  and each cached route an ``int64`` array of its rows plus its
  propagation delay and burst loss.  Profiles, capacities and routes
  are fixed once the scenario is built, so both live as long as the
  planner.
* **One flat evaluation.** The hour's routes are concatenated into one
  point array; its parameters are one gather from the table, and the
  utilization, residual, loss and queue twins each run once over it.
  Hourly noise is one gather per distinct hour index from the
  traffic model's own arrays, which the model draws only up to the
  last hour read; the planner re-fetches them only when an hour passes
  the shortest one it holds.
* **Column-wise route fold** (:func:`fold_routes`). Queue sums and
  survival products accumulate link by link in route order across a
  padded ``[routes x max_len]`` matrix - the scalar left fold, so no
  pairwise-summation drift - and ``argmin`` picks the bottleneck.
* **Array-form results.** RTTs, losses, the TCP model, the bulk phase,
  bytes and CPU are elementwise array chains in the scalar expression
  order; only the result objects are built per job.

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
from ..speedtest import protocol
from ..speedtest.protocol import SpeedTestResult
from ..units import HOUR, transferred_bytes
from .vectcp import (batch_flows_for_rtt, batch_loss_rate,
                     batch_mean_utilization_grid,
                     batch_multiflow_throughput_mbps, batch_queue_delay_ms,
                     batch_residual_mbps)

__all__ = ["BatchLaneExecutor", "BatchPlanner", "batch_executor_factory",
           "fold_routes"]

#: Outcome sentinel: every attempt of the slot failed (protocol failure,
#: injected failure, or truncation) - the stepper re-raises.
_FAILED = object()


class _Job:
    """One test that will complete, with its pre-drawn noise."""

    __slots__ = ("lane", "slot", "ts", "attempts", "server", "jitter",
                 "down_short", "down_wiggle", "up_short", "up_wiggle")


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
        # Static tables: one parameter row per (link, direction) and
        # one entry per cached route, keyed by id() of the route.
        self._row_of: Dict[Tuple[int, int], int] = {}
        self._params: List[Tuple[tuple, tuple]] = []
        self._keys: List[Tuple[int, int]] = []
        self._noisy_rows: List[int] = []
        self._noise_arrays: List[np.ndarray] = []
        # Every held noise array covers at least the hours below this.
        self._noise_hours = UtilizationModel.FIRST_DRAW_HOURS
        self._table: Optional[np.ndarray] = None
        self._link_ids = np.zeros(0, dtype=np.int64)
        self._routes: Dict[int, Tuple[Any, np.ndarray, float, float]] = {}

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
        with obs.span("shard.plan_hour"):
            jobs = self._rng_prepass(lanes, hour_start)
            if jobs:
                self._evaluate(jobs)
        obs.inc("shard.hours_planned")

    # ------------------------------------------------------------------
    # phase 1: replicate the scalar RNG consumption

    def _rng_prepass(self, lanes: Sequence[Lane],
                     hour_start: float) -> List[_Job]:
        runner = self.runner
        engine = runner.engine
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
                    if rng.random() < protocol.FAILURE_RATE:
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
                    job.jitter = rng.exponential(protocol.PING_JITTER_MS,
                                                 size=protocol.PING_COUNT)
                    job.down_short = rng.normal(0.0, protocol.NOISE_SIGMA)
                    job.down_wiggle = rng.normal(0.0,
                                                 protocol.NOISE_SIGMA * 0.25)
                    job.up_short = rng.normal(0.0, protocol.NOISE_SIGMA)
                    job.up_wiggle = rng.normal(0.0,
                                               protocol.NOISE_SIGMA * 0.25)
                    break
                if job is None:
                    self._outcomes[(lane.name, slot.slot_index)] = _FAILED
                else:
                    jobs.append(job)
        return jobs

    # ------------------------------------------------------------------
    # phase 2: one flat array evaluation of the whole hour

    def _evaluate(self, jobs: List[_Job]) -> None:
        runner = self.runner
        platform = runner.engine.platform
        evaluator = platform.evaluator

        # Routes are laid out job by job, ingress (download) route then
        # egress (upload) route: route 2j is job j's down transfer and
        # route 2j+1 its up transfer, the scalar path's own order.
        entries = []
        for job in jobs:
            for route in platform.route_pair(job.lane.vm,
                                             job.server.host_pop_id,
                                             Direction.INGRESS):
                entry = self._routes.get(id(route))
                if entry is None:
                    entry = self._route_entry(route, platform.topology,
                                              evaluator.utilization_model)
                entries.append(entry)
        _routes, route_rows, prop, burst = zip(*entries)
        lengths = np.array([len(r) for r in route_rows])
        rows = np.concatenate(route_rows)
        job_ts = np.array([job.ts for job in jobs])
        ts = np.repeat(np.repeat(job_ts, 2), lengths)
        if self._table is None:
            self._build_table()
        p = self._table[rows]
        obs.inc("shard.link_observations", float(len(rows)))

        model = evaluator.utilization_model
        mean = batch_mean_utilization_grid(ts, p[:, 4], p[:, 5], p[:, 6],
                                           p[:, 8::3], p[:, 9::3],
                                           p[:, 10::3])
        hour_idx = (np.floor_divide(ts - model.origin_ts, HOUR)
                    .astype(np.int64) % UtilizationModel.NOISE_HOURS)
        noise = np.zeros(ts.shape)
        for hour in np.unique(hour_idx).tolist():
            in_hour = hour_idx == hour
            noise[in_hour] = self._noise_column(hour, model)[rows[in_hour]]
        u = np.where(p[:, 7] > 0, np.maximum(0.0, mean + noise), mean)
        if evaluator.flap_hook is not None:
            u = self._apply_flaps(evaluator.flap_hook, rows, ts, u)
        q_sum, survive, avail, bottleneck = fold_routes(
            batch_queue_delay_ms(u, base=p[:, 2], cap=p[:, 3]),
            batch_loss_rate(u, floor=p[:, 1]),
            batch_residual_mbps(p[:, 0], u), lengths)

        # Per route, in the float-op order of PathPerformanceModel:
        # rtt = own prop + partner prop + own queues + partner queues.
        prop = np.array(prop)
        burst = np.array(burst)
        rtt = prop + _partner(prop) + q_sum + _partner(q_sum)
        loss = np.minimum(0.95, np.maximum(0.0, 1.0 - survive))
        eff = np.minimum(0.95, loss + PathMetrics.BURST_TCP_WEIGHT * burst)
        total_loss = np.minimum(0.95, 1.0 - (1.0 - loss) * (1.0 - burst))
        tcp = batch_multiflow_throughput_mbps(
            rtt, eff, batch_flows_for_rtt(rtt), avail)
        if obs.enabled():
            # Mirror the scalar counters in bottleneck-link order.
            links = np.append(self._link_ids[rows], -1)[bottleneck]
            for value in tcp[np.argsort(links, kind="stable")].tolist():
                obs.inc("netsim.tcp.transfers")
                obs.observe("netsim.tcp.throughput_mbps", value)
        self._finish(jobs, rtt[1::2], tcp, total_loss)

    def _finish(self, jobs: List[_Job], rtt_eg: np.ndarray,
                tcp: np.ndarray, total_loss: np.ndarray) -> None:
        """Protocol arithmetic as arrays, then one result per job."""
        endpoint_cap = []
        server_cap = []
        cpu_cap = []
        short = []
        wiggle = []
        for job in jobs:
            vm = job.lane.vm
            cap = job.server.effective_cap_mbps
            endpoint_cap += (vm.nic.ingress_cap_mbps(),
                             vm.nic.egress_cap_mbps())
            server_cap += (cap, cap)
            cpu_cap.append(vm.machine_type.cpu_throughput_cap_mbps)
            short += (job.down_short, job.up_short)
            wiggle += (job.down_wiggle, job.up_wiggle)
        cpu_cap = np.array(cpu_cap)
        rate = np.minimum(np.minimum(tcp, endpoint_cap), server_cap)
        rate = np.minimum(rate, np.repeat(cpu_cap, 2))
        factor = np.maximum(0.05, np.minimum(1.0, 1.0 - np.abs(short)
                                             + np.asarray(wiggle)))
        mbps = np.maximum(0.05, rate * factor)
        down, up = mbps[0::2], mbps[1::2]
        latency = np.min(rtt_eg[:, None]
                         + np.array([job.jitter for job in jobs]), axis=1)
        columns = zip(
            jobs, latency.tolist(), down.tolist(), up.tolist(),
            total_loss[0::2].tolist(), total_loss[1::2].tolist(),
            transferred_bytes(down, protocol.DOWNLOAD_DURATION_S).tolist(),
            transferred_bytes(up, protocol.UPLOAD_DURATION_S).tolist(),
            np.minimum(1.0, np.maximum(down, up) / cpu_cap).tolist())
        for (job, latency_ms, down_mbps, up_mbps, down_loss, up_loss,
             down_bytes, up_bytes, cpu) in columns:
            result = SpeedTestResult(
                server_id=job.server.server_id,
                vm_name=job.lane.vm.name,
                ts=job.ts,
                latency_ms=round(latency_ms, 2),
                download_mbps=round(down_mbps, 2),
                upload_mbps=round(up_mbps, 2),
                download_loss_rate=down_loss,
                upload_loss_rate=up_loss,
                download_bytes=down_bytes,
                upload_bytes=up_bytes,
                duration_s=protocol.TEST_DURATION_S,
                cpu_utilization=cpu,
            )
            artefacts = BrowserArtifacts(
                result=result,
                pcap_bytes=int(result.total_bytes * _PCAP_FRACTION),
                capture_bytes=_CAPTURE_OVERHEAD_BYTES,
                attempts=job.attempts,
            )
            self._outcomes[(job.lane.name, job.slot.slot_index)] = artefacts

    def _apply_flaps(self, hook: Any, rows: np.ndarray, ts: np.ndarray,
                     u: np.ndarray) -> np.ndarray:
        """Raise flapped link-hours to the hook's utilization floor.

        The hook is called once per distinct ``(link, direction, hour)``
        in the scalar path's order: link directions by first appearance,
        hours ascending within each - the hook's RNG decisions and the
        fault-event log depend on that order.
        """
        hours, hour_rank = np.unique(np.floor_divide(ts, HOUR),
                                     return_inverse=True)
        distinct, first = np.unique(rows, return_index=True)
        first_of = np.zeros(len(self._keys), dtype=np.int64)
        first_of[distinct] = first
        _combos, first_point, inverse = np.unique(
            first_of[rows] * len(hours) + hour_rank, return_index=True,
            return_inverse=True)
        # An unflapped link-hour's floor is -inf: max(u, -inf) is u.
        floors = np.full(len(first_point), -np.inf)
        for k, point in enumerate(first_point.tolist()):
            link_id, direction = self._keys[int(rows[point])]
            floor = hook(link_id, direction, float(ts[point]))
            if floor is not None:
                floors[k] = floor
        return np.maximum(u, floors[inverse])

    # ------------------------------------------------------------------
    # static tables (profiles, capacities and routes are fixed once the
    # scenario is built, so every entry lives for the planner's lifetime)

    def _route_entry(self, route: Any, topo: Any, model: UtilizationModel
                     ) -> Tuple[Any, np.ndarray, float, float]:
        """``(route, table rows, propagation ms, clamped burst loss)``.

        The route object itself is kept in the entry so its ``id()``
        key can never be reused by another route.
        """
        burst_survive = 1.0
        rows = []
        for link_id, direction in route.links:
            link = topo.link(link_id)
            burst_survive *= (1.0 - link.burst_loss)
            rows.append(self._row_index(link, direction, model))
        entry = (route, np.array(rows, dtype=np.int64),
                 route.propagation_delay_ms(topo),
                 min(0.95, max(0.0, 1.0 - burst_survive)))
        self._routes[id(route)] = entry
        return entry

    def _row_index(self, link: Any, direction: int,
                   model: UtilizationModel) -> int:
        """The ``(link, direction)`` row of the parameter table."""
        key = (link.link_id, direction)
        row = self._row_of.get(key)
        if row is None:
            profile = model.profile(link.link_id, direction)
            row = self._row_of[key] = len(self._params)
            self._params.append(
                ((link.capacity_mbps, _FLOOR_LOSS[link.kind],
                  _QUEUE_BASE_MS[link.kind], _QUEUE_CAP_MS[link.kind],
                  profile.base, profile.weekend_factor,
                  profile.utc_offset_hours, profile.noise_sigma),
                 tuple((b.center_hour, b.width_hours, b.amplitude)
                       for b in profile.bumps)))
            if profile.noise_sigma > 0:
                self._noisy_rows.append(row)
                self._noise_arrays.append(model.noise_array(
                    link.link_id, direction, self._noise_hours))
            self._table = None
        return row

    def _build_table(self) -> None:
        """One float row per link direction: the eight scalar columns,
        then ``(center, width, amplitude)`` bump triples padded with
        amplitude-0 bumps, which contribute an exact ``+0.0``."""
        n_bumps = max(len(bumps) for _floats, bumps in self._params)
        pad = (0.0, 1.0, 0.0)
        self._table = np.array([floats + sum(bumps, ())
                                + pad * (n_bumps - len(bumps))
                                for floats, bumps in self._params])
        self._keys = list(self._row_of)
        self._link_ids = np.array([link_id for link_id, _ in self._keys],
                                  dtype=np.int64)

    def _noise_column(self, hour_idx: int,
                      model: UtilizationModel) -> np.ndarray:
        """Every row's hourly noise at *hour_idx* (0.0 for quiet rows),
        gathered from the model's own arrays."""
        if hour_idx >= self._noise_hours:
            self._refresh_noise(hour_idx + 1, model)
        column = np.zeros(len(self._params))
        column[self._noisy_rows] = [arr[hour_idx]
                                    for arr in self._noise_arrays]
        return column

    def _refresh_noise(self, hours: int, model: UtilizationModel) -> None:
        """Re-fetch every noisy row's array, drawn to cover *hours*."""
        self._noise_arrays = [model.noise_array(*self._keys[row], hours)
                              for row in self._noisy_rows]
        self._noise_hours = min(map(len, self._noise_arrays),
                                default=hours)


def fold_routes(queue: np.ndarray, loss: np.ndarray, residual: np.ndarray,
                lengths: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-route ``(queue sum, survival product, min residual, bottleneck)``.

    Routes lie back to back in the flat point arrays, *lengths* points
    each.  The fold runs column by column over a padded ``[routes x
    max_len]`` index matrix, so each route still accumulates its links
    one at a time in route order - the scalar left fold, not numpy's
    pairwise summation.  Padding points read queue ``+0.0``, survival
    ``1.0`` and residual ``+inf``: exact identities.  The bottleneck is
    the flat index of the first strict minimum residual (``argmin``
    keeps the first occurrence), or -1 when no residual is below
    ``+inf`` - the scalar fold's starting values.
    """
    n = queue.shape[0]
    width = int(lengths.max())
    cols = np.arange(width)
    starts = np.cumsum(lengths) - lengths
    index = np.where(cols < lengths[:, None], starts[:, None] + cols, n)
    q = np.append(queue, 0.0)[index]
    keep = np.append(1.0 - loss, 1.0)[index]
    r = np.append(residual, np.inf)[index]
    q_sum = np.zeros(len(lengths))
    survive = np.ones(len(lengths))
    for k in range(width):
        q_sum = q_sum + q[:, k]
        survive = survive * keep[:, k]
    at = np.arange(len(lengths))
    col = np.argmin(r, axis=1)
    avail = r[at, col]
    bottleneck = np.where(avail < np.inf, index[at, col], -1)
    return q_sum, survive, avail, bottleneck


def _partner(per_route: np.ndarray) -> np.ndarray:
    """Each route's value at its job's other route (pairs swapped)."""
    return per_route.reshape(-1, 2)[:, ::-1].ravel()


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
