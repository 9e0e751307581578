"""The daemon collector: one live detector across successive campaigns.

A single :class:`Collector` owns one
:class:`~repro.core.streaming.StreamingCongestionDetector`, one
:class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.alerts.history.MetricHistory`, and one
:class:`~repro.alerts.engine.RuleEvaluator`, and survives any number
of campaign runs replayed into it (``Clasp.collector()`` /
``repro campaign --runs N``).  Each hour boundary drives one pipeline
step (the detector runs the paper's fixed setting - see
:mod:`repro.core.streaming`):

1. assert watermark continuity (simulated time never moves backwards
   across runs - a daemon replaying campaigns out of order is a bug,
   not late data) and advance the detector;
2. export newly-sealed V_H events into the ``vh_events`` history
   table;
3. once per hour boundary, write the registry into the ``metrics``
   table and evaluate every rule at the watermark.

The engine feeds a collector through the same
:class:`~repro.core.streaming.StreamingDetectorObserver` as a bare
detector (:meth:`Collector.observer`).

Everything is keyed on simulated time and the whole collector state
round-trips through :meth:`Collector.state_json`, so a daemon can be
stopped and restarted mid-sequence with bit-identical downstream
output (the determinism tests enforce this).
"""

from __future__ import annotations

import json
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from ..core.campaign import CampaignDataset
from ..core.congestion import CongestionReport, PairKey
from ..core.streaming import (StreamingCongestionDetector,
                              StreamingDetectorObserver)
from ..core.tsdb import TimeSeriesDB
from ..errors import ConfigError, ReproError, ValidationError
from ..obs.metrics import MetricsRegistry
from ..units import HOUR
from .engine import RuleEvaluator
from .history import MetricHistory
from .rules import AlertRule

__all__ = ["Collector", "concat_datasets"]

_STATE_SCHEMA = "repro-collector/v1"

#: The pipeline cadence, as written in every state file: one registry
#: snapshot and rule evaluation per hour boundary.  A state holding any
#: other cadence is refused.
_SNAPSHOT_HOURS = 1.0


class Collector:
    """One detector + registry + history + rules across campaign runs.

    *start_ts* anchors the detector's day bucketing and the first
    absence-rule horizon; successive runs must replay at or after the
    current watermark.
    """

    def __init__(self, start_ts: float,
                 rules: Sequence[AlertRule] = (),
                 registry: Optional[MetricsRegistry] = None,
                 history: Optional[MetricHistory] = None) -> None:
        self.detector = StreamingCongestionDetector(start_ts,
                                                    self._resolve_offset)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.history = history if history is not None \
            else MetricHistory()
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self.evaluator = RuleEvaluator(self.rules, self.history,
                                       start_ts,
                                       registry=self.registry)
        #: Completed begin_run() calls.
        self.runs = 0
        #: One entry per run: provider + the watermark it started at.
        self.run_log: List[Dict[str, Any]] = []
        self._offset_of: Optional[Callable[[str], float]] = None
        self._provider = "gcp"
        self._exported: Set[Tuple[PairKey, int]] = set()
        self._last_pipeline_ts: Optional[float] = None

    # ------------------------------------------------------------------
    # run attachment

    def _resolve_offset(self, server_id: str) -> float:
        if self._offset_of is None:
            raise ValidationError(
                "collector has no offset resolver; call begin_run() "
                "before feeding it measurements")
        return self._offset_of(server_id)

    def begin_run(self, offset_of: Callable[[str], float],
                  provider: str = "gcp") -> None:
        """Attach the next campaign's offset resolver and provider.

        The detector itself survives untouched - this only swaps where
        *new* server ids resolve their UTC offsets and which provider
        tag the run's history rows carry.
        """
        self._offset_of = offset_of
        self._provider = provider
        self.runs += 1
        self.run_log.append({"run": self.runs, "provider": provider,
                             "watermark": self.detector.watermark})
        self.registry.counter("collector.runs").inc()

    def observer(self) -> StreamingDetectorObserver:
        """An engine observer feeding this collector."""
        return StreamingDetectorObserver(self)

    # ------------------------------------------------------------------
    # the pipeline

    def observe_record(self, record: Any) -> None:
        """One completed measurement: detector + throughput history."""
        accepted = self.detector.observe_record(record)
        self.history.record_test(self._provider, record)
        self.registry.counter("collector.observed").inc()
        if not accepted:
            self.registry.counter("collector.late_dropped").inc()

    def advance(self, ts: float) -> None:
        """One watermark step: seal, export, snapshot, evaluate.

        Unlike the bare detector (where a backwards ``advance`` is a
        no-op), daemon time moving *backwards* means runs were fed out
        of order and raises.
        """
        if ts < self.detector.watermark:
            raise ValidationError(
                f"daemon watermark went backwards: advance({ts}) "
                f"after {self.detector.watermark}; successive runs "
                "must replay in simulated-time order")
        self.detector.advance(ts)
        self._export_sealed()
        if (self._last_pipeline_ts is None
                or ts >= self._last_pipeline_ts + _SNAPSHOT_HOURS * HOUR):
            self.history.snapshot_registry(ts, self.registry.snapshot(),
                                           provider=self._provider)
            self.evaluator.evaluate(ts)
            self._last_pipeline_ts = ts

    def _export_sealed(self) -> None:
        """Append newly-sealed V_H events to the history, exactly once."""
        for pair, day, summary in self.detector.sealed_items():
            key = (pair, day)
            if key in self._exported:
                continue
            self._exported.add(key)
            self.registry.counter("collector.sealed_days").inc()
            for event in summary.events:
                self.history.record_vh_event(
                    self._provider, pair[0], pair[2], event)
                self.registry.counter("collector.vh_events").inc()

    def finalize(self) -> CongestionReport:
        """Seal every open day, flush, evaluate once more, report.

        The returned report equals batch ``detect()`` on the
        concatenation of every run's dataset (see
        :func:`concat_datasets`) - the streaming equivalence contract
        extended across runs.
        """
        report = self.detector.finalize()
        self._export_sealed()
        ts = self.detector.watermark
        self.history.snapshot_registry(ts, self.registry.snapshot(),
                                       provider=self._provider)
        self.evaluator.evaluate(ts)
        self._last_pipeline_ts = ts
        return report

    # ------------------------------------------------------------------
    # persistence (daemon save/restore)

    def state_dict(self) -> Dict[str, Any]:
        """The collector's complete state, exact to the float."""
        return {
            "schema": _STATE_SCHEMA,
            "provider": self._provider,
            "runs": self.runs,
            "run_log": [dict(entry) for entry in self.run_log],
            "snapshot_hours": _SNAPSHOT_HOURS,
            "last_pipeline_ts": self._last_pipeline_ts,
            "exported": [[list(pair), day]
                         for pair, day in sorted(self._exported)],
            "detector": self.detector.state_dict(),
            "registry": self.registry.dump_state(),
            "history": self.history.db.dump(),
            "evaluator": self.evaluator.state_dict(),
        }

    def state_json(self) -> str:
        """Stable JSON bytes of :meth:`state_dict`."""
        return json.dumps(self.state_dict(), sort_keys=True)

    @classmethod
    def from_state(cls, state: Dict[str, Any],
                   rules: Sequence[AlertRule] = ()) -> "Collector":
        """Rebuild a collector from :meth:`state_dict` output.

        *rules* must be the same rule set the saved collector ran
        (rules files are code, not state); a changed set raises via
        the evaluator's restore check.  ``begin_run()`` must be called
        before the restored collector can bucket *new* server ids.  A
        state with a foreign schema, a missing key, or a cadence or
        detector setting other than the fixed one raises
        :class:`~repro.errors.ConfigError`.
        """
        schema = state.get("schema") if isinstance(state, dict) \
            else None
        if schema != _STATE_SCHEMA:
            raise ConfigError(
                f"unsupported collector state schema "
                f"{schema!r} (expected {_STATE_SCHEMA!r})")
        try:
            detector_state = state["detector"]
            if state["snapshot_hours"] != _SNAPSHOT_HOURS:
                raise ConfigError(
                    f"collector state has snapshot_hours="
                    f"{state['snapshot_hours']!r}; the collector runs "
                    f"only snapshot_hours={_SNAPSHOT_HOURS!r}")
            collector = cls(
                start_ts=float(detector_state["start_ts"]), rules=rules,
                history=MetricHistory(
                    TimeSeriesDB.from_dump(state["history"])))
            collector.detector.load_state(detector_state)
            collector.registry.restore_state(state["registry"])
            collector.evaluator.restore_state(state["evaluator"])
            collector.runs = int(state["runs"])
            collector.run_log = [dict(entry) for entry in state["run_log"]]
            collector._provider = state["provider"]
            collector._last_pipeline_ts = (
                None if state["last_pipeline_ts"] is None
                else float(state["last_pipeline_ts"]))
            collector._exported = {
                (tuple(pair), int(day)) for pair, day in state["exported"]}
        except KeyError as exc:
            if isinstance(exc, ReproError):
                raise
            raise ConfigError(
                f"collector state is missing key {exc.args[0]!r}"
            ) from exc
        return collector

    @classmethod
    def from_state_json(cls, text: str,
                        rules: Sequence[AlertRule] = ()) -> "Collector":
        """Rebuild from :meth:`state_json` bytes."""
        try:
            state = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"collector state is not valid JSON: {exc}") from exc
        return cls.from_state(state, rules=rules)


def concat_datasets(datasets: Sequence[CampaignDataset]
                    ) -> CampaignDataset:
    """Concatenate successive runs' datasets into one.

    Used to check the daemon-mode equivalence contract: the
    collector's :meth:`Collector.finalize` report must equal batch
    ``detect()`` on this concatenation.  Datasets must be in
    simulated-time order (each run starting at or after the previous
    end); rows are copied per pair in series order, so within-ts ties
    keep the same arrival order both paths see.
    """
    if not datasets:
        raise ValidationError("concat_datasets needs >= 1 dataset")
    for earlier, later in zip(datasets, datasets[1:]):
        if later.start_ts < earlier.end_ts:
            raise ValidationError(
                f"datasets overlap: a run starting at "
                f"{later.start_ts} precedes an end at "
                f"{earlier.end_ts}")
    merged = CampaignDataset(datasets[0].start_ts,
                             datasets[-1].end_ts,
                             provider=datasets[0].provider)
    for dataset in datasets:
        for server_id in sorted(dataset.servers):
            if server_id not in merged.servers:
                merged.add_server_meta(dataset.servers[server_id])
        rows = []
        for pair in dataset.pairs():
            series = dataset.table.series(pair)
            columns = [series[name]
                       for name in merged.table.field_names]
            for i, ts in enumerate(series["ts"]):
                rows.append((float(ts), pair,
                             tuple(float(col[i]) for col in columns)))
        rows.sort(key=lambda row: row[0])  # stable: ties keep order
        merged.table.extend(rows)
        merged.completed_tests += dataset.completed_tests
        merged.failed_tests += dataset.failed_tests
        merged.retried_tests += dataset.retried_tests
        merged.lost.extend(dataset.lost)
    return merged
