"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``campaign`` - the CLASP loop, end to end, through one
  :class:`~repro.experiments.Pipeline` per run: build the world, select
  the servers of one region (bdrmap pilot scan), deploy, run the
  campaign ``--runs`` times (each run picks up in simulated time where
  the last one ended), detect congestion, and print the
  completed/retried/lost accounting, the congested s-days / s-hours /
  servers and the dataset digest.  Options attach to that one run:

  - ``--faults`` - the deterministic fault-injection plan;
  - ``--batch`` - vectorize each hour's tests (byte-identical dataset);
  - ``--provider`` picks the cloud (gcp is the default and reproduces
    the paper) and ``--providers A,B`` grows more clouds' WANs into the
    world (which changes the dataset);
  - ``--export DIR`` (under every ``--format``), ``--trace PATH``
    (the engine event stream as JSON lines) and ``--metrics`` (event
    and billing totals); an unwritable export or trace path fails
    before the world is built;
  - ``--profile DIR`` - run with :mod:`repro.obs` enabled and write a
    profile directory: ``profile.txt`` (self wall time per layer and
    per span name), ``spans.jsonl`` (one row per span name) +
    ``metrics.jsonl``, and ``metrics.prom``.

  The live plane is one :class:`~repro.alerts.Collector` riding the
  event bus: a streaming detector, a metrics registry, a history and a
  rule engine that outlive every run.  ``--stream``, ``--rules FILE``
  (JSON, see ``examples/rules_default.json``; without it the shipped
  rule set runs), ``--runs N`` with N > 1, ``--state PATH`` (resume
  the collector from PATH when it exists and save it back, unfinalized,
  afterwards) or a machine ``--format`` attach it.  ``--format`` picks
  the output: ``summary`` (tables + notification log), ``jsonl`` (the
  notification log) or ``prom`` (collector metrics + ``ALERTS``
  series).
* ``experiment <id>`` - run one paper experiment (``table1``, ``fig2``
  ... ``fig8``) over a ``--days``-long campaign and print its rendered
  block, or ``matrix``: the cross-cloud VM-pair matrix plus the
  provider-choice analysis over every registered provider;
  ``--profile DIR`` as above.
* ``world`` - generate a scenario and print its inventory.
* ``cost`` - estimate the cloud bill for a campaign shape.
* ``lint`` - run the :mod:`repro.lint` invariant checker (determinism,
  unit safety, error hierarchy, layering, plus the cross-file
  analyses); every argument passes straight to ``python -m repro.lint``.

Every command accepts ``--seed`` / ``--scale`` (and ``--days`` where a
campaign runs).  No command reads the ``REPRO_*`` environment
variables: only the benchmark harness's session fixture
(``benchmarks/conftest.py``) does.  A package error
(:class:`~repro.errors.ReproError`) or an unusable file path
(:class:`OSError`) prints as one ``repro: error: ...`` line on stderr
and exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional

from .errors import ReproError, ValidationError

__all__ = ["main", "build_parser"]

EXPERIMENTS = ("table1", "fig2", "fig3", "fig4", "fig5", "fig6",
               "fig7", "fig8")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, days: bool = True) -> None:
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--scale", type=float, default=0.2)
        if days:
            p.add_argument("--days", type=int, default=7)

    def profile_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument("--profile", metavar="DIR",
                       help="run with repro.obs enabled and write a "
                            "profile directory (spans + metrics)")

    p_exp = sub.add_parser("experiment",
                           help="run one paper table/figure experiment")
    p_exp.add_argument("id", choices=EXPERIMENTS + ("matrix",))
    profile_opt(p_exp)
    common(p_exp)

    p_camp = sub.add_parser("campaign",
                            help="select, deploy and run a campaign, "
                                 "with optional live monitoring")
    p_camp.add_argument("--region", default=None,
                        help="deployment region (default: the "
                             "provider's default region)")
    p_camp.add_argument("--servers", type=int, default=8,
                        help="server budget for the deployment (>= 1)")
    p_camp.add_argument("--faults", choices=("off", "default", "heavy"),
                        default="off",
                        help="fault-injection plan (seed-deterministic)")
    p_camp.add_argument("--export", metavar="DIR",
                        help="export the dataset to this directory")
    p_camp.add_argument("--trace", metavar="PATH",
                        help="write the campaign event stream to PATH "
                             "as JSON lines")
    p_camp.add_argument("--metrics", action="store_true",
                        help="print engine event counts and billing "
                             "totals after the campaign")
    p_camp.add_argument("--batch", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="vectorize each hour's tests as numpy "
                             "batches (byte-identical dataset)")
    p_camp.add_argument("--provider", default="gcp",
                        help="cloud provider to run the campaign on "
                             "(gcp | aws | openstack); gcp reproduces "
                             "the paper's digests byte-for-byte")
    p_camp.add_argument("--providers", metavar="A,B",
                        help="comma-separated extra providers whose "
                             "WANs are grown into the world")
    p_camp.add_argument("--runs", type=int, default=1,
                        help="successive campaigns replayed into one "
                             "collector, each starting where the last "
                             "ended in simulated time (>= 1)")
    p_camp.add_argument("--stream", action="store_true",
                        help="attach the live collector and verify its "
                             "finalized report equals batch detection")
    p_camp.add_argument("--rules", metavar="FILE",
                        help="attach the live collector with this JSON "
                             "rules file (default: the shipped rule "
                             "set)")
    p_camp.add_argument("--state", metavar="PATH",
                        help="resume the collector from PATH when it "
                             "exists and save it back afterwards "
                             "(skips finalize so later runs can resume)")
    p_camp.add_argument("--format", choices=("summary", "jsonl", "prom"),
                        default="summary", dest="fmt",
                        help="summary = tables + notification log, "
                             "jsonl = notification log, prom = "
                             "Prometheus text")
    profile_opt(p_camp)
    common(p_camp)

    p_world = sub.add_parser("world",
                             help="generate a world and print inventory")
    common(p_world, days=False)

    p_cost = sub.add_parser("cost",
                            help="estimate the cloud bill for a campaign")
    p_cost.add_argument("--servers", type=int, default=450)
    p_cost.add_argument("--days", type=int, default=30)
    p_cost.add_argument("--tier", choices=("premium", "standard"),
                        default="premium")

    # Every argument after ``lint`` goes to repro.lint's own parser.
    sub.add_parser("lint", add_help=False,
                   help="run the invariant checker; arguments pass "
                        "through to python -m repro.lint")
    return parser


@contextmanager
def _profiled(profile_dir: Optional[str]) -> Iterator[None]:
    """Run the body with :mod:`repro.obs` on, then dump a profile.

    Entered before the scenario build, so selection and deployment
    spans land in the profile too, not just the campaign hours.  The
    directory is created first, so an unusable path fails before the
    run rather than after it.  The one-line note goes to stderr so
    machine formats stay pipeable.
    """
    if not profile_dir:
        yield
        return
    import repro.obs as obs
    from repro.obs.exporters import write_profile

    Path(profile_dir).mkdir(parents=True, exist_ok=True)
    obs.enable()
    try:
        yield
        files = write_profile(profile_dir, obs.tracer(), obs.registry())
        print(f"profile: {len(files)} files -> {profile_dir}",
              file=sys.stderr)
    finally:
        obs.disable()


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id == "matrix":
        with _profiled(args.profile):
            return _matrix(args)
    from repro import experiments

    module = getattr(experiments, args.id)
    pipeline = experiments.Pipeline(args.seed, args.scale, args.days)
    with _profiled(args.profile):
        print(module.render(module.run(pipeline)))
    return 0


def _matrix(args: argparse.Namespace) -> int:
    from repro.cloud.providers import PROVIDERS
    from repro.core.crosscloud import provider_choice, run_matrix
    from repro.experiments import build_scenario
    from repro.report.crosscloud import (render_matrix,
                                         render_provider_choice)

    scenario = build_scenario(seed=args.seed, scale=args.scale,
                              providers=tuple(PROVIDERS))
    fleet = scenario.fleet
    print(render_matrix(run_matrix(fleet)))
    primary, *others = fleet.names()
    for other in others:
        choice = provider_choice(fleet, scenario.catalog,
                                 scenario.clasp.prefix2as,
                                 primary, other, seed=args.seed)
        print()
        print(render_provider_choice(choice))
    return 0


def _parse_extra_providers(spec) -> tuple:
    return tuple(p.strip() for p in (spec or "").split(",") if p.strip())


@dataclass
class _Run:
    """What one ``campaign`` invocation ran and attached."""

    provider: str
    region: str
    servers_measured: int
    #: Every run's dataset, concatenated in simulated-time order.
    dataset: Any
    cloud_bill_usd: float
    #: Injected-fault counts per kind, summed over runs (empty: no plan).
    injected: Counter
    #: The live plane, when attached.
    collector: Any
    metrics: Any
    trace: Any
    resumed: bool
    #: Whether the collector watermark rose strictly run over run.
    monotone: bool


def _live(args: argparse.Namespace) -> bool:
    """Whether the options ask for the live plane (the collector)."""
    return bool(args.stream or args.rules or args.state or args.runs > 1
                or args.fmt != "summary")


def _run(args: argparse.Namespace) -> _Run:
    """Run the pipeline's campaign ``--runs`` times.

    The one place a campaign runs: the fault-plan table, the live plane
    (at most one collector), the profile bracket and the trace-file
    close all live here.  A bad shape (``--days``, ``--servers``,
    ``--region``) or a ``--state``, ``--export`` or ``--trace`` path
    that could not be written fails here, before the world is built,
    not after the last run.
    """
    from repro.cloud.providers import get_provider
    from repro.engine import MetricsObserver, TraceObserver
    from repro.experiments import Pipeline
    from repro.faults import FaultPlan
    from repro.simclock import CAMPAIGN_START
    from repro.units import DAY

    if args.runs < 1:
        raise ValidationError(f"--runs must be >= 1, got {args.runs}")
    if args.state:
        state_path = Path(args.state)
        if state_path.is_dir():
            raise ValidationError(
                f"--state {args.state} is a directory, not a file")
        if not state_path.parent.is_dir():
            raise ValidationError(
                f"--state {args.state}: directory "
                f"{state_path.parent} does not exist")
    fault_plans = {"off": None, "default": FaultPlan.default(),
                   "heavy": FaultPlan.heavy()}
    provider = get_provider(args.provider)
    region = args.region or provider.default_region
    new_pipeline = functools.partial(
        Pipeline, seed=args.seed, scale=args.scale, days=args.days,
        regions=(region,), budget=args.servers,
        faults=fault_plans[args.faults], provider=provider.name,
        providers=_parse_extra_providers(args.providers))
    pipeline = new_pipeline()
    if args.export:
        Path(args.export).mkdir(parents=True, exist_ok=True)
    collector, resumed = None, False
    if _live(args):
        from repro.alerts import Collector, default_rules, load_rules
        rules = load_rules(args.rules) if args.rules else default_rules()
        resumed = bool(args.state) and Path(args.state).exists()
        collector = (Collector.from_state_json(
            Path(args.state).read_text(encoding="utf-8"), rules=rules)
            if resumed else Collector(float(CAMPAIGN_START), rules=rules))
    metrics = MetricsObserver() if args.metrics else None
    trace = None
    first = collector.runs if collector is not None else 0
    datasets, watermarks = [], []
    bill, injected = 0.0, Counter()
    with _profiled(args.profile):
        try:
            trace = TraceObserver(args.trace) if args.trace else None
            for index in range(first, first + args.runs):
                # Run k rebuilds the same world from the seed and covers
                # simulated days [k*days, (k+1)*days), so a restart from
                # --state replays exactly what one invocation would.
                if index > first:
                    pipeline = new_pipeline()
                clasp, plans = pipeline.clasp, pipeline.topology_plans()
                observers = [o for o in (metrics, trace) if o is not None]
                if collector is not None:
                    observers.append(clasp.collector(collector=collector)[1])
                datasets.append(clasp.run_campaign(
                    plans, days=args.days,
                    start_ts=float(CAMPAIGN_START) + index * args.days * DAY,
                    observers=observers, batch=args.batch))
                bill += clasp.total_cost_usd()
                if clasp.fault_injector is not None:
                    injected.update(clasp.fault_injector.summary())
                if collector is not None:
                    watermarks.append(collector.detector.watermark)
        finally:
            if trace is not None:
                trace.close()
    if len(datasets) == 1:
        dataset = datasets[0]
    else:
        from repro.alerts import concat_datasets
        dataset = concat_datasets(datasets)
    if args.state:
        Path(args.state).write_text(collector.state_json(),
                                    encoding="utf-8")
    return _Run(provider=provider.name, region=region,
                servers_measured=len(plans[0].server_ids), dataset=dataset,
                cloud_bill_usd=bill, injected=injected,
                collector=collector, metrics=metrics,
                trace=trace, resumed=resumed,
                monotone=all(later > earlier for earlier, later
                             in zip(watermarks, watermarks[1:])))


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.alerts import (alerts_to_prometheus,
                              notifications_to_jsonlines)
    from repro.core.export import export_dataset
    from repro.obs.exporters import metrics_to_prometheus

    run = _run(args)
    # Every output format exports; only the summary says so on stdout.
    manifest = (export_dataset(run.dataset, args.export) if args.export
                else None)
    collector = run.collector
    report = None
    if collector is not None and not args.state:
        report = collector.finalize()
    if args.fmt == "jsonl":
        print(notifications_to_jsonlines(collector.evaluator.notifications),
              end="")
        return 0
    if args.fmt == "prom":
        print(metrics_to_prometheus(collector.registry.snapshot()), end="")
        print(alerts_to_prometheus(collector.evaluator), end="")
        return 0
    _print_summary(args, run, report, manifest)
    return 0


def _print_summary(args: argparse.Namespace, run: _Run, report,
                   manifest: Optional[Path]) -> None:
    from repro.alerts import notifications_to_jsonlines
    from repro.core.congestion import detect
    from repro.core.export import dataset_digest
    from repro.report.tables import TextTable, format_percent

    dataset, collector = run.dataset, run.collector
    shape = (f"{args.days}-day campaign" if args.runs == 1
             else f"{args.runs} x {args.days}-day runs")
    table = TextTable(["metric", "value"],
                      title=f"{run.provider}/{run.region}: {shape} "
                            f"(faults={args.faults})"
                            + (" (resumed)" if run.resumed else ""))
    table.add_row(["servers measured", run.servers_measured])
    table.add_row(["tests completed", dataset.completed_tests])
    table.add_row(["tests failed", dataset.failed_tests])
    table.add_row(["tests retried", dataset.retried_tests])
    table.add_row(["slots lost", dataset.lost_tests])
    for reason, count in sorted(dataset.lost_by_reason().items()):
        table.add_row([f"  lost to {reason}", count])
    for kind, count in sorted(run.injected.items()):
        table.add_row([f"  injected {kind}", count])
    table.add_row(["dataset digest", dataset_digest(dataset)[:16]])
    table.add_row(["cloud bill", f"${run.cloud_bill_usd:,.2f}"])
    print(table.render())

    batch = detect(dataset)
    table = TextTable(["metric", "value"], title="congestion detection")
    table.add_row(["congested s-days",
                   format_percent(batch.congested_day_fraction)])
    table.add_row(["congested s-hours",
                   format_percent(batch.congested_hour_fraction, 2)])
    table.add_row(["congested servers", len(batch.congested_pairs())])
    if collector is not None:
        detector, evaluator = collector.detector, collector.evaluator
        table.add_row(["collector runs", collector.runs])
        table.add_row(["watermarks strictly monotone",
                       "yes" if run.monotone else "NO"])
        table.add_row(["observations", detector.observed])
        table.add_row(["late dropped", detector.late_dropped])
        table.add_row(["sealed pair-days", detector.sealed_days])
        if report is None:
            table.add_row(["state saved", args.state])
        else:
            table.add_row(["V_H events", len(report.events)])
            table.add_row(["stream == batch detect",
                           "yes" if report == batch else "NO"])
        table.add_row(["alert rules", len(evaluator.rules)])
        table.add_row(["rule evaluations", evaluator.evaluations])
        table.add_row(["alert notifications", len(evaluator.notifications)])
        table.add_row(["alerts firing now", evaluator.active_count])
    print(table.render())
    if collector is not None:
        print(notifications_to_jsonlines(collector.evaluator.notifications),
              end="")
        for rule, since_ts in collector.evaluator.firing():
            print(f"firing: {rule.name} ({rule.severity}) "
                  f"since sim ts {since_ts:.0f}")
    if run.metrics is not None:
        snapshot = run.metrics.snapshot()
        events = TextTable(["event", "count"], title="engine events")
        for kind, count in snapshot["events"].items():
            events.add_row([kind, count])
        for category, usd in snapshot["usd_by_category"].items():
            events.add_row([f"  billed {category}", f"${usd:,.2f}"])
        print(events.render())
    if run.trace is not None:
        print(f"trace: {run.trace.n_written} events -> {args.trace}")
    if manifest is not None:
        print(f"exported to {manifest.parent}")


def _cmd_world(args: argparse.Namespace) -> int:
    from repro.experiments import build_scenario
    from repro.report.tables import TextTable

    scenario = build_scenario(seed=args.seed, scale=args.scale)
    stats = scenario.internet.topology.stats()
    table = TextTable(["component", "count"],
                      title=f"World (seed={args.seed}, "
                            f"scale={args.scale})")
    for key in ("ases", "pops", "links", "interdomain_links"):
        table.add_row([key, stats[key]])
    table.add_row(["cloud interdomain links",
                   len(scenario.internet.topology.interdomain_links(
                       scenario.internet.cloud_asn))])
    table.add_row(["speed test servers", len(scenario.catalog)])
    table.add_row(["US servers",
                   len(scenario.catalog.servers(country="US"))])
    table.add_row(["congested ASNs",
                   len(scenario.internet.congested_asns)])
    table.add_row(["story networks", len(scenario.story_asns)])
    print(table.render())
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.cloud.billing import CostTracker
    from repro.cloud.providers import get_provider
    from repro.cloud.tiers import NetworkTier
    from repro.core.orchestrator import Orchestrator
    from repro.report.tables import TextTable
    from repro.speedtest.protocol import UPLOAD_DURATION_S
    from repro.units import transferred_bytes

    if args.days < 1:
        raise ValidationError(f"days must be >= 1, got {args.days}")
    tier = NetworkTier(args.tier)
    n_vms = Orchestrator.vms_needed(args.servers)
    gcp = get_provider("gcp")
    vm_hourly_usd = gcp.machine_type(gcp.default_machine_type).hourly_usd
    costs = CostTracker()
    vm_usd = costs.charge_vm_hours(vm_hourly_usd * n_vms, args.days * 24)
    tests = args.servers * 24 * args.days
    upload_bytes = transferred_bytes(95.0, UPLOAD_DURATION_S)  # per test
    egress_usd = costs.charge_egress(tests * upload_bytes, tier)
    storage_usd = costs.charge_storage(tests * 2_000_000,
                                       args.days / 30.0)
    table = TextTable(["item", "USD"],
                      title=f"Estimated bill: {args.servers} servers, "
                            f"{args.days} days, {tier.value} tier")
    table.add_row(["measurement VMs", f"{vm_usd:,.2f}"])
    table.add_row(["egress (upload tests)", f"{egress_usd:,.2f}"])
    table.add_row(["storage", f"{storage_usd:,.2f}"])
    table.add_row(["total", f"{costs.total_usd:,.2f}"])
    print(table.render())
    return 0


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "experiment": _cmd_experiment,
    "campaign": _cmd_campaign,
    "world": _cmd_world,
    "cost": _cmd_cost,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint.cli import main as lint_main
        return lint_main(extra)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
