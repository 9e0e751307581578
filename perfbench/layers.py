"""Per-layer tracing for the end-to-end benchmark, from outside the program.

:data:`LAYERS` is the table of public calls the traced run wraps: for
each one, the workloads it must be exercised on and the end-to-end
metric a change to that layer should move.  :meth:`LayerTracer.install`
replaces each call with a wrapper that keeps, in memory, the call
count, the inclusive wall time and the self time (inclusive time minus
the time spent in wrapped callees, kept on a wrapper stack).  Nothing
under ``src/`` changes: methods are patched on their class, and
module-level functions on every ``repro`` module that imported them, so
callers that bound the name at import time see the wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

PILOT = "pilot-scan"
MONITORED = "monitored-campaign"
FAULTY = "faulty-campaign"
WORKLOADS = (PILOT, MONITORED, FAULTY)


class _Distinct:
    """Distinct call keys / calls."""

    def __init__(self, key: Callable[[tuple, dict], Any]) -> None:
        self._key = key
        self._seen: set = set()

    def add(self, args, kwargs, result, error) -> None:
        self._seen.add(self._key(args, kwargs))

    def value(self, calls: int) -> float:
        return len(self._seen) / calls if calls else 0.0


class _Share:
    """Calls for which ``pred(result, error)`` holds / calls."""

    def __init__(self, pred: Callable[[Any, Any], bool]) -> None:
        self._pred = pred
        self._hits = 0

    def add(self, args, kwargs, result, error) -> None:
        self._hits += bool(self._pred(result, error))

    def value(self, calls: int) -> float:
        return self._hits / calls if calls else 0.0


class _Mean:
    """``amount(result)`` summed over successful calls / calls."""

    def __init__(self, amount: Callable[[Any], float]) -> None:
        self._amount = amount
        self._total = 0.0

    def add(self, args, kwargs, result, error) -> None:
        if error is None:
            self._total += self._amount(result)

    def value(self, calls: int) -> float:
        return self._total / calls if calls else 0.0


def _argument_tuple(func: Callable[..., Any]) -> Callable[[tuple, dict], Tuple]:
    """Key a method call by its arguments, defaults applied, self dropped."""
    signature = inspect.signature(func)

    def key(args: tuple, kwargs: dict) -> Tuple:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return tuple(bound.arguments.values())[1:]
    return key


@dataclass(frozen=True)
class Extra:
    """A derived per-layer metric, measured at the wrapper."""

    suffix: str
    unit: str
    #: ``make(wrapped function)`` -> accumulator with add() and value().
    make: Callable[[Callable[..., Any]], Any]


def _error_share() -> Extra:
    return Extra("error_share", "ratio",
                 lambda f: _Share(lambda r, e: e is not None))


@dataclass(frozen=True)
class Layer:
    """One wrapped public call."""

    #: Module under ``repro``, e.g. ``netsim.routing``.
    module: str
    #: ``Class.method`` or a module-level function name.
    qualname: str
    #: Workloads on which the call must run at least once.
    serves: Tuple[str, ...]
    #: The end-to-end metric a change here should move, and where.
    moves: str
    extra: Optional[Extra] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS: Tuple[Layer, ...] = (
    Layer("netsim.generator", "TopologyGenerator.generate", WORKLOADS,
          "setup_s, all"),
    Layer("speedtest.catalog", "build_catalog", WORKLOADS, "setup_s, all"),
    Layer("core.clasp", "Clasp.build", WORKLOADS, "setup_s, all"),
    Layer("core.selection.topology_based", "TopologySelector.run", WORKLOADS,
          "select_s, all"),
    Layer("tools.bdrmap", "Bdrmap.collect_traces", WORKLOADS,
          "select_s, all"),
    Layer("tools.bdrmap", "Bdrmap.infer", WORKLOADS, "select_s, all"),
    Layer("tools.bdrmap", "AliasResolver.resolve", WORKLOADS,
          "select_s, all",
          Extra("distinct_ratio", "ratio",
                lambda f: _Distinct(lambda args, kwargs: args[1]))),
    Layer("tools.traceroute", "Scamper.trace_route", WORKLOADS,
          "select_s, all",
          Extra("hops_per_trace", "hops",
                lambda f: _Mean(lambda trace: len(trace.hops)))),
    Layer("netsim.routing", "Router.route", WORKLOADS,
          "select_s, all; campaign_s, faulty-campaign",
          Extra("distinct_ratio", "ratio",
                lambda f: _Distinct(_argument_tuple(f)))),
    Layer("netsim.routing", "Router.as_path", WORKLOADS,
          "select_s, all; campaign_s, faulty-campaign"),
    Layer("netsim.linkstate", "LinkStateEvaluator.observe", WORKLOADS,
          "select_s, all; campaign_s, faulty-campaign"),
    Layer("tools.prefix2as", "Prefix2AS.lookup", WORKLOADS,
          "select_s, all",
          Extra("miss_share", "ratio",
                lambda f: _Share(lambda r, e: e is None and r is None))),
    Layer("cloud.api", "CloudPlatform.route_pair", (FAULTY,),
          "campaign_s, faulty-campaign"),
    Layer("netsim.pathmodel", "PathPerformanceModel.evaluate", (FAULTY,),
          "campaign_s, faulty-campaign"),
    Layer("netsim.tcp", "multiflow_throughput_mbps", (FAULTY,),
          "campaign_s, faulty-campaign"),
    Layer("speedtest.protocol", "SpeedTestEngine.run", (FAULTY,),
          "campaign_s/completed_share, faulty-campaign", _error_share()),
    Layer("speedtest.browser", "HeadlessBrowser.run_test", (FAULTY,),
          "campaign_s/completed_share, faulty-campaign",
          Extra("retry_share", "ratio",
                lambda f: _Share(
                    lambda r, e: e is not None or r.attempts > 1))),
    Layer("cloud.storage", "StorageBucket.upload", (FAULTY,),
          "completed_share/campaign_s, faulty-campaign", _error_share()),
    Layer("core.orchestrator", "Orchestrator.replace_vm", (FAULTY,),
          "completed_share/campaign_s, faulty-campaign"),
    Layer("faults.injector", "FaultInjector.speedtest_fails", (FAULTY,),
          "completed_share/campaign_s, faulty-campaign"),
    Layer("engine.lanes", "CampaignEngine.run", (MONITORED, FAULTY),
          "campaign_s, monitored-campaign and faulty-campaign"),
    Layer("engine.bus", "EventBus.emit", (MONITORED, FAULTY),
          "campaign_s, monitored-campaign and faulty-campaign"),
    Layer("shard.batch", "BatchPlanner.plan_hour", (MONITORED,),
          "campaign_s/tests_per_s, monitored-campaign"),
    Layer("shard.vectcp", "batch_multiflow_throughput_mbps", (MONITORED,),
          "campaign_s/tests_per_s, monitored-campaign"),
    Layer("core.streaming", "StreamingCongestionDetector.observe",
          (MONITORED,), "campaign_s, monitored-campaign"),
    Layer("core.streaming", "StreamingCongestionDetector.advance",
          (MONITORED,), "campaign_s, monitored-campaign"),
    Layer("core.streaming", "StreamingCongestionDetector.finalize",
          (MONITORED,), "run_s, monitored-campaign"),
    Layer("alerts.engine", "RuleEvaluator.evaluate", (MONITORED,),
          "campaign_s, monitored-campaign"),
    Layer("alerts.collector", "Collector.advance", (MONITORED,),
          "campaign_s, monitored-campaign"),
    Layer("core.congestion", "detect", WORKLOADS, "run_s, all"),
)

#: Measured for every layer: (suffix, unit).
COLUMNS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        for suffix, unit in COLUMNS:
            units[f"{layer.name}.{suffix}"] = unit
        if layer.extra is not None:
            units[f"{layer.name}.{layer.extra.suffix}"] = layer.extra.unit
    units["trace_overhead"] = "ratio"
    return units


class _Stat:
    __slots__ = ("calls", "total", "own", "depth", "extra")

    def __init__(self, extra: Any) -> None:
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.depth = 0
        self.extra = extra


class LayerTracer:
    """Wraps :data:`LAYERS` and accumulates their records in memory."""

    def __init__(self) -> None:
        self._stats: Dict[str, _Stat] = {}
        #: Time spent in wrapped callees, one slot per open call plus a
        #: bottom slot for calls made outside any wrapped call.
        self._child_time: List[float] = [0.0]

    def _wrap(self, layer: Layer, func: Callable[..., Any]) -> Callable:
        extra = layer.extra.make(func) if layer.extra is not None else None
        stat = self._stats[layer.name] = _Stat(extra)
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            stat.depth += 1
            result = error = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.calls += 1
                stat.own += elapsed - child_time.pop()
                child_time[-1] += elapsed
                if stat.depth == 0:
                    # A recursive call's time is inside the outer call.
                    stat.total += elapsed
                if extra is not None:
                    extra.add(args, kwargs, result, error)
        return traced

    def install(self) -> None:
        """Import every traced module and patch each call in :data:`LAYERS`."""
        for layer in LAYERS:
            module = importlib.import_module(f"repro.{layer.module}")
            owner_name, _, attr = layer.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self._wrap(layer, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(layer, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original)
            # ``from ..netsim.tcp import multiflow_throughput_mbps`` gives
            # the importer its own binding: patch every one of them.
            for name, mod in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def report(self) -> Dict[str, float]:
        """Per-layer metrics by name: calls, total_s, self_s and extras."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            stat = self._stats[layer.name]
            out[f"{layer.name}.calls"] = stat.calls
            out[f"{layer.name}.total_s"] = stat.total
            out[f"{layer.name}.self_s"] = stat.own
            if layer.extra is not None:
                out[f"{layer.name}.{layer.extra.suffix}"] = \
                    stat.extra.value(stat.calls)
        return out


def unused_layers(metrics: Dict[str, float], workload: str) -> List[str]:
    """Layers the table says *workload* exercises but that never ran.

    A nonempty answer means a call was renamed or bypassed, so its
    per-layer numbers would silently stop measuring anything.
    """
    return [layer.name for layer in LAYERS
            if workload in layer.serves
            and not metrics.get(f"{layer.name}.calls")]
