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
  base, weekend factor, UTC offset, noise sigma, padded bump triples).
  Each route pair, keyed like the platform's route cache by ``(VM host
  PoP, remote PoP, tier)``, owns one index into padded ``[pairs, 2,
  width]`` table-row and valid-point arrays and ``[pairs, 2]``
  propagation and burst-loss arrays; ``route_pair`` runs only when a
  key is first seen.  Profiles, capacities and routes are fixed once
  the scenario is built, so the tables live as long as the planner.
* **One gather per hour.** The hour's jobs index the pair table; the
  valid points, read row-major, are the routes laid end to end (job by
  job, ingress route then egress route, link by link), and only they
  go through the utilization, residual, loss and queue twins, once
  each.  Hourly noise is one gather from a ``[rows x 24 h]`` window cut
  from the traffic model's own arrays, which the model draws only up
  to the last hour read; the planner re-fetches them only when a
  window passes the shortest one it holds.
* **Route fold** (:func:`fold_routes`). The points scatter back into
  the padded matrices, and queue sums and survival products accumulate
  link by link in route order - the scalar left fold, so no
  pairwise-summation drift - while ``argmin`` picks the bottleneck.
* **Array-form results.** RTTs, losses, the TCP model, the bulk phase
  and bytes are elementwise array chains in the scalar expression
  order, over per-lane caps read once an hour and each job's standard
  deviates.  The hour's results stay columns: one list per test
  column, cut per lane; no per-test object is built.

The planner is a data source for :class:`repro.core.campaign.LaneExecutor`,
with the scalar sources' contracts: :meth:`BatchPlanner.slots_for` is
``HourlySchedule.hour_slots`` (the first call in an hour plans that
hour for every lane) and :meth:`BatchPlanner.take_block` is the
executor's browser loop over a lane-hour: per-slot outcomes plus the
completed tests' columns, from which the executor builds the same
:class:`~repro.engine.events.TestBlock`.  The blocks, retry accounting,
and dataset bytes are identical to the scalar path (asserted against
the golden digests and trace bytes by ``tests/test_shard.py`` and
``tests/test_golden.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..cloud.api import Direction
from ..core.scheduler import TestSlot
from ..engine.events import NO_RESULTS, ResultColumns
from ..engine.lanes import Lane
from ..errors import ValidationError
from ..netsim.linkstate import _FLOOR_LOSS, _QUEUE_BASE_MS, _QUEUE_CAP_MS
from ..netsim.pathmodel import PathMetrics
from ..netsim.traffic import UtilizationModel
from ..speedtest.browser import _CAPTURE_OVERHEAD_BYTES, _PCAP_FRACTION
from ..speedtest import protocol
from ..units import HOUR, transferred_bytes
from .vectcp import (batch_flows_for_rtt, batch_loss_rate,
                     batch_mean_utilization_grid,
                     batch_multiflow_throughput_mbps, batch_queue_delay_ms,
                     batch_residual_mbps)

__all__ = ["BatchPlanner", "fold_routes"]

#: Standard deviations of a test's four bulk-noise draws: download
#: shortfall and wiggle, then upload's.
_NOISE_SCALES = np.array([protocol.NOISE_SIGMA, protocol.NOISE_SIGMA * 0.25,
                          protocol.NOISE_SIGMA, protocol.NOISE_SIGMA * 0.25])

#: Hours of hourly noise the planner copies out of the traffic model at
#: a time: one ``[rows x hours]`` window, cut again when an hour falls
#: outside it.
_NOISE_WINDOW_HOURS = 24


#: One test that will complete, as the tuple ``(lane, slot, ts,
#: attempts, server, pair, limits, draws)``: ``pair`` is its route-pair
#: index (None until the pair is first built), ``limits`` the lane's
#: ``(ingress cap, egress cap, CPU cap)`` for the hour, and ``draws``
#: the standard deviates of its latency jitter, then of its four
#: bulk-noise draws.
_Job = Tuple[Lane, TestSlot, float, int, Any, Optional[int],
             Tuple[float, float, float], List[float]]


class BatchPlanner:
    """Precomputes one hour of test outcomes for every campaign lane.

    The planner must replicate, call for call, every RNG consumption
    the scalar path makes on a lane's streams: the schedule draw, then
    per slot the browser retry loop (failure draw before the injector
    checks, no further draws on a failed attempt) and, on success, the
    latency jitter and the four bulk-noise draws.  The stream state
    after a planned hour is therefore byte-identical to the scalar
    hour, which is what makes batch-on/batch-off runs interchangeable
    mid-campaign.
    """

    def __init__(self, runner: Any, lanes: Sequence[Lane]) -> None:
        self.runner = runner
        self.lanes = lanes
        self._slots: Dict[str, List[TestSlot]] = {}
        #: Per planned lane: its per-slot outcomes (``None`` or
        #: ``"speedtest"``) and its jobs' range in the hour's columns.
        self._blocks: Dict[str, Tuple[List[Optional[str]], int, int]] = {}
        #: The hour's completed tests, job by job.
        self._columns: ResultColumns = NO_RESULTS
        self._planned_hour: Optional[float] = None
        # Static tables: one parameter row per (link, direction) and
        # one entry per route pair, keyed like the platform's route
        # cache: (VM host PoP, tier), then the remote PoP.
        self._row_of: Dict[Tuple[int, int], int] = {}
        self._params: List[Tuple[tuple, tuple]] = []
        self._keys: List[Tuple[int, int]] = []
        self._noisy_rows: List[int] = []
        self._noise_arrays: List[np.ndarray] = []
        # Every held noise array covers at least the hours below this.
        self._noise_hours = UtilizationModel.FIRST_DRAW_HOURS
        self._table: Optional[np.ndarray] = None
        self._link_ids = np.zeros(0, dtype=np.int64)
        self._pair_of: Dict[Tuple[int, Any], Dict[int, int]] = {}
        self._pairs: List[Tuple[Tuple[List[int], float, float], ...]] = []
        self._pair_rows: Optional[np.ndarray] = None
        self._pair_valid = np.zeros((0, 2, 0), dtype=bool)
        self._pair_points = np.zeros(0, dtype=np.int64)
        self._pair_prop = np.zeros((0, 2))
        self._pair_burst = np.zeros((0, 2))
        # Hourly noise of every row over hours [start, start + width).
        self._window: Optional[np.ndarray] = None
        self._window_start = 0

    # ------------------------------------------------------------------
    # executor-facing sources

    def slots_for(self, lane: Lane, hour_start: float) -> List[TestSlot]:
        """The lane's slots for the hour; the first call in an hour
        plans that hour for every lane."""
        if hour_start != self._planned_hour:
            self.plan_hour(hour_start)
        return self._slots[lane.name]

    def take_block(self, lane: Lane
                   ) -> Tuple[List[Optional[str]], ResultColumns]:
        """Pop the lane's planned hour: ``(per-slot outcomes, completed
        tests)``, what the executor's browser loop returns.

        Keeps the ``speedtest.*`` counters ``HeadlessBrowser.run_test``
        keeps.  Raises on a lane the hour did not plan (rather than
        falling back to the scalar path): a scalar re-run would consume
        the lane's RNG stream a second time and desynchronise every
        later draw.
        """
        try:
            outcomes, lo, hi = self._blocks.pop(lane.name)
        except KeyError:
            raise ValidationError(
                f"batch planner has no outcome for lane {lane.name!r} "
                f"in the hour at ts {self._planned_hour}") from None
        results = ResultColumns._make(column[lo:hi]
                                      for column in self._columns)
        if obs.enabled():
            failed = outcomes.count("speedtest")
            if failed:
                obs.inc("speedtest.failures", failed)
            if hi > lo:
                obs.inc("speedtest.tests", hi - lo)
            for value in results.download_mbps:
                obs.observe("speedtest.download_mbps", value)
        return outcomes, results

    # ------------------------------------------------------------------

    def plan_hour(self, hour_start: float) -> None:
        """Precompute outcomes for every runnable lane-slot this hour."""
        self._slots.clear()
        self._blocks.clear()
        self._columns = NO_RESULTS
        self._planned_hour = hour_start
        with obs.span("shard.plan_hour"):
            jobs = self._rng_prepass(hour_start)
            if jobs:
                self._evaluate(jobs)
        obs.inc("shard.hours_planned")

    # ------------------------------------------------------------------
    # phase 1: replicate the scalar RNG consumption

    def _rng_prepass(self, hour_start: float) -> List[_Job]:
        runner = self.runner
        engine = runner.engine
        browser = runner.browser
        backoff = browser.backoff
        attempts = range(browser.max_retries + 1)
        injector = runner.injector
        get_server = runner.catalog.get
        jobs: List[_Job] = []
        for lane in self.lanes:
            slots = lane.schedule.hour_slots(hour_start)
            self._slots[lane.name] = slots
            if injector is not None:
                if hour_start < lane.ready_ts:
                    continue
                if injector.vm_preempted(lane.vm.name, hour_start):
                    continue
                injector.prefetch_test_decisions(
                    lane.vm.name, [(slot.server_id, slot.ts)
                                   for slot in slots])
            vm = lane.vm
            outcomes: List[Optional[str]] = []
            first_job = len(jobs)
            rng = engine.stream_for(vm.name)
            limits = (vm.nic.ingress_cap_mbps(), vm.nic.egress_cap_mbps(),
                      vm.machine_type.cpu_throughput_cap_mbps)
            by_remote = self._pair_of.setdefault((vm.nic.host_pop_id,
                                                  vm.tier), {})
            for slot in slots:
                server = get_server(slot.server_id)
                for attempt in attempts:
                    attempt_ts = slot.ts
                    if attempt and backoff is not None:
                        attempt_ts = slot.ts + backoff(attempt - 1)
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
                    # The standard deviates of the scalar path's jitter
                    # and bulk-noise draws; _finish scales them.
                    draws = (rng.standard_exponential(protocol.PING_COUNT)
                             .tolist() + rng.standard_normal(4).tolist())
                    jobs.append((lane, slot, attempt_ts, attempt + 1, server,
                                 by_remote.get(server.host_pop_id), limits,
                                 draws))
                    outcomes.append(None)
                    break
                else:
                    outcomes.append("speedtest")
            self._blocks[lane.name] = (outcomes, first_job, len(jobs))
            if injector is not None:
                injector.drop_test_decisions()
        return jobs

    # ------------------------------------------------------------------
    # phase 2: one flat array evaluation of the whole hour

    def _evaluate(self, jobs: List[_Job]) -> None:
        platform = self.runner.engine.platform
        evaluator = platform.evaluator
        model = evaluator.utilization_model

        # Job j's routes are row j of the [jobs, 2, width] pair gathers:
        # the ingress (download) route, then the egress (upload) route,
        # the scalar path's own order.  Read row-major, the valid points
        # are the flat point order: job by job, link by link.
        lanes, _slots, job_ts, _attempts, servers, pairs, _limits, _draws = \
            zip(*jobs)
        if None in pairs:
            pairs = [self._pair_index(lane.vm, server.host_pop_id, platform,
                                      model) if pair is None else pair
                     for lane, server, pair in zip(lanes, servers, pairs)]
        if self._table is None:
            self._build_table()
        if self._pair_rows is None:
            self._build_pair_table()
        pair = np.array(pairs)
        valid = self._pair_valid[pair]
        rows = self._pair_rows[pair][valid]
        n_points = self._pair_points[pair]
        job_ts = np.array(job_ts)
        ts = np.repeat(job_ts, n_points)
        p = self._table[rows]
        obs.inc("shard.link_observations", float(len(rows)))

        mean = batch_mean_utilization_grid(ts, p[:, 4], p[:, 5], p[:, 6],
                                           p[:, 8::3], p[:, 9::3],
                                           p[:, 10::3])
        hour_idx = np.repeat(
            np.floor_divide(job_ts - model.origin_ts, HOUR).astype(np.int64)
            % UtilizationModel.NOISE_HOURS, n_points)
        noise = self._noise(rows, hour_idx, model)
        u = np.where(p[:, 7] > 0, np.maximum(0.0, mean + noise), mean)
        if evaluator.flap_hook is not None:
            u = self._apply_flaps(evaluator.flap_hook, rows, ts, u)
        width = valid.shape[2]
        q_sum, survive, avail, col = fold_routes(
            batch_queue_delay_ms(u, base=p[:, 2], cap=p[:, 3]),
            batch_loss_rate(u, floor=p[:, 1]),
            batch_residual_mbps(p[:, 0], u), valid.reshape(-1, width))

        # Per route, in the float-op order of PathPerformanceModel:
        # rtt = own prop + partner prop + own queues + partner queues.
        prop = self._pair_prop[pair].ravel()
        burst = self._pair_burst[pair].ravel()
        rtt = prop + _partner(prop) + q_sum + _partner(q_sum)
        loss = np.minimum(0.95, np.maximum(0.0, 1.0 - survive))
        eff = np.minimum(0.95, loss + PathMetrics.BURST_TCP_WEIGHT * burst)
        total_loss = np.minimum(0.95, 1.0 - (1.0 - loss) * (1.0 - burst))
        tcp = batch_multiflow_throughput_mbps(
            rtt, eff, batch_flows_for_rtt(rtt), avail)
        if obs.enabled():
            # Mirror the scalar counters in bottleneck-link order.
            links = self._link_ids[self._pair_rows[pair].reshape(-1, width)]
            links = np.where(col >= 0, links[np.arange(len(col)), col], -1)
            for value in tcp[np.argsort(links, kind="stable")].tolist():
                obs.inc("netsim.tcp.transfers")
                obs.observe("netsim.tcp.throughput_mbps", value)
        self._finish(jobs, rtt[1::2], tcp, total_loss)

    def _finish(self, jobs: List[_Job], rtt_eg: np.ndarray,
                tcp: np.ndarray, total_loss: np.ndarray) -> None:
        """Protocol arithmetic as arrays, kept as the hour's columns."""
        _lanes, _slots, job_ts, attempts, servers, _pairs, limits, draws = \
            zip(*jobs)
        limits = np.array(limits)
        draws = np.array(draws)
        # numpy's exponential(scale) is scale * a standard deviate and
        # normal(loc, scale) is loc + scale * one, element by element.
        jitter = protocol.PING_JITTER_MS * draws[:, :protocol.PING_COUNT]
        noise = 0.0 + _NOISE_SCALES * draws[:, protocol.PING_COUNT:]
        short = noise[:, 0::2].ravel()
        wiggle = noise[:, 1::2].ravel()
        server_cap = np.array([server.effective_cap_mbps
                               for server in servers])
        cpu_cap = limits[:, 2]
        rate = np.minimum(np.minimum(tcp, limits[:, :2].ravel()),
                          np.repeat(server_cap, 2))
        rate = np.minimum(rate, np.repeat(cpu_cap, 2))
        factor = np.maximum(0.05, np.minimum(1.0, 1.0 - np.abs(short)
                                             + wiggle))
        mbps = np.maximum(0.05, rate * factor)
        down, up = mbps[0::2], mbps[1::2]
        latency = np.min(rtt_eg[:, None] + jitter, axis=1)
        down_bytes = transferred_bytes(down, protocol.DOWNLOAD_DURATION_S)
        up_bytes = transferred_bytes(up, protocol.UPLOAD_DURATION_S)
        # int() of each result's total_bytes * _PCAP_FRACTION (both
        # truncate toward zero), plus the fixed capture blob.
        artefact = (((down_bytes + up_bytes) * _PCAP_FRACTION)
                    .astype(np.int64) + _CAPTURE_OVERHEAD_BYTES)
        # SpeedTestEngine.run reports the three UI numbers rounded to
        # 2 decimals (Python's round, value by value).
        self._columns = ResultColumns(
            list(job_ts),
            [server.server_id for server in servers],
            list(attempts),
            [round(x, 2) for x in latency.tolist()],
            [round(x, 2) for x in down.tolist()],
            [round(x, 2) for x in up.tolist()],
            total_loss[0::2].tolist(), total_loss[1::2].tolist(),
            up_bytes.tolist(), artefact.tolist())

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

    def _pair_index(self, vm: Any, remote_pop_id: int, platform: Any,
                    model: UtilizationModel) -> int:
        """The route pair's index; a new key asks the platform for its
        routes, once.  Per route: ``(table rows, propagation ms, clamped
        burst loss)``."""
        by_remote = self._pair_of.setdefault((vm.nic.host_pop_id, vm.tier),
                                             {})
        pair = by_remote.get(remote_pop_id)
        if pair is not None:
            return pair
        topo = platform.topology
        entry = []
        for route in platform.route_pair(vm, remote_pop_id,
                                         Direction.INGRESS):
            burst_survive = 1.0
            rows = []
            for link_id, direction in route.links:
                link = topo.link(link_id)
                burst_survive *= (1.0 - link.burst_loss)
                rows.append(self._row_index(link, direction, model))
            entry.append((rows, route.propagation_delay_ms(topo),
                          min(0.95, max(0.0, 1.0 - burst_survive))))
        pair = by_remote[remote_pop_id] = len(self._pairs)
        self._pairs.append(tuple(entry))
        self._pair_rows = None
        return pair

    def _build_pair_table(self) -> None:
        """Every pair's two routes as ``[pairs, 2, width]`` table rows
        and a valid-point mask, padded to the longest route, plus their
        ``[pairs, 2]`` propagation and burst-loss columns."""
        width = max(len(rows) for entry in self._pairs
                    for rows, _prop, _burst in entry)
        shape = (len(self._pairs), 2, width)
        self._pair_rows = np.zeros(shape, dtype=np.int64)
        self._pair_valid = np.zeros(shape, dtype=bool)
        for pair, entry in enumerate(self._pairs):
            for side, (rows, _prop, _burst) in enumerate(entry):
                self._pair_rows[pair, side, :len(rows)] = rows
                self._pair_valid[pair, side, :len(rows)] = True
        self._pair_points = self._pair_valid.sum(axis=(1, 2))
        self._pair_prop = np.array([[prop for _rows, prop, _burst in entry]
                                    for entry in self._pairs])
        self._pair_burst = np.array([[burst for _rows, _prop, burst in entry]
                                     for entry in self._pairs])

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
            self._window = None
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

    def _noise(self, rows: np.ndarray, hour_idx: np.ndarray,
               model: UtilizationModel) -> np.ndarray:
        """Each point's hourly noise (0.0 on quiet rows): one gather from
        the noise window, cut again when an hour falls outside it."""
        lo, hi = int(hour_idx.min()), int(hour_idx.max())
        start = self._window_start
        if (self._window is None or lo < start
                or hi >= start + self._window.shape[1]):
            self._cut_window(lo, hi, model)
        return self._window[rows, hour_idx - self._window_start]

    def _cut_window(self, lo: int, hi: int,
                    model: UtilizationModel) -> None:
        """Copy hours ``[lo, end)`` of every noisy row out of the model's
        arrays, at least hours lo..hi and :data:`_NOISE_WINDOW_HOURS` of
        them where the wrap allows."""
        end = min(max(hi + 1, lo + _NOISE_WINDOW_HOURS),
                  UtilizationModel.NOISE_HOURS)
        if end > self._noise_hours:
            self._refresh_noise(end, model)
        window = np.zeros((len(self._params), end - lo))
        for row, arr in zip(self._noisy_rows, self._noise_arrays):
            window[row] = arr[lo:end]
        self._window = window
        self._window_start = lo

    def _refresh_noise(self, hours: int, model: UtilizationModel) -> None:
        """Re-fetch every noisy row's array, drawn to cover *hours*."""
        self._noise_arrays = [model.noise_array(*self._keys[row], hours)
                              for row in self._noisy_rows]
        self._noise_hours = min(map(len, self._noise_arrays),
                                default=hours)


def fold_routes(queue: np.ndarray, loss: np.ndarray, residual: np.ndarray,
                valid: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-route ``(queue sum, survival product, min residual, bottleneck)``.

    *valid* is a ``[routes x width]`` mask of each route's links, and
    the flat point arrays hold the valid points in its row-major order:
    route by route, links in route order.  The points are scattered
    into padded matrices, where padding reads queue ``+0.0``, survival
    ``1.0`` and residual ``+inf``: exact identities.  ``cumsum`` and
    ``cumprod`` along a row add one link at a time in route order - the
    scalar left fold, not numpy's pairwise summation.  The bottleneck
    is the column of the first strict minimum residual (``argmin`` keeps
    the first occurrence), or -1 when no residual is below ``+inf`` -
    the scalar fold's starting values.
    """
    q = np.zeros(valid.shape)
    q[valid] = queue
    keep = np.ones(valid.shape)
    keep[valid] = 1.0 - loss
    r = np.full(valid.shape, np.inf)
    r[valid] = residual
    col = np.argmin(r, axis=1)
    avail = r[np.arange(len(col)), col]
    return (np.cumsum(q, axis=1)[:, -1], np.cumprod(keep, axis=1)[:, -1],
            avail, np.where(avail < np.inf, col, -1))


def _partner(per_route: np.ndarray) -> np.ndarray:
    """Each route's value at its job's other route (pairs swapped)."""
    return per_route.reshape(-1, 2)[:, ::-1].ravel()
