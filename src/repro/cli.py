"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``experiment <id>`` - run one paper experiment (``table1``, ``fig2``
  ... ``fig8``) and print its rendered block.
* ``quickloop`` - the quickstart loop (pilot scan, campaign, detection)
  with a compact report.
* ``campaign`` - run one regional campaign, optionally under the
  deterministic fault-injection plan (``--faults``), print the
  completed/retried/lost accounting and the dataset digest, and
  optionally export the dataset (``--export DIR``), write the engine
  event stream as JSON lines (``--trace PATH``), or print event/billing
  totals (``--metrics``).  ``--provider`` picks the cloud (gcp is the
  default and reproduces the paper), ``--providers A,B`` adds more
  clouds to the fleet, and ``--matrix`` runs the cross-cloud VM-pair
  matrix plus the provider-choice analysis instead of a campaign.
* ``serve`` - run a campaign as an always-on monitor: the incremental
  streaming detector rides the event bus, a TTL-cached
  :class:`~repro.serve.MonitorService` answers simulated dashboard
  traffic (``--consumers`` queries per hour), and the final state /
  serving metrics print as a summary table, Prometheus text, or JSON
  lines (``--format state|prom|jsonl``).
* ``daemon`` - replay N successive campaigns into one long-lived
  :class:`~repro.alerts.Collector` (one streaming detector, metrics
  registry, tsdb-backed history, and rule engine across all runs),
  verify watermark continuity and the cross-run batch-equivalence
  contract, and print the alert notification log; ``--state PATH``
  saves/resumes the collector between invocations.
* ``alerts`` - run one campaign with the alerting collector attached
  and print the notification log / firing state (``--format
  summary|jsonl|prom``).  ``campaign``, ``serve``, and ``daemon`` all
  accept ``--rules FILE`` (JSON; see ``examples/rules_default.json``),
  defaulting to the shipped rule set.
* ``world`` - generate a scenario and print its inventory.
* ``cost`` - estimate the cloud bill for a campaign shape.
* ``obs`` - run an instrumented campaign with :mod:`repro.obs` enabled
  and dump the cross-layer span tree or metrics (``--format
  tree|jsonl|prom``).
* ``lint`` - run the :mod:`repro.lint` invariant checker over the
  source tree (determinism, unit-safety, error hierarchy, layering,
  plus the cross-file shard-safety rules); ``--graph`` prints the
  module import graph, ``--format json|sarif`` emits machine-readable
  findings.

``campaign`` and ``experiment`` also accept ``--profile DIR``: the run
executes with observability enabled and writes a profile directory
(``spans.jsonl``, ``metrics.jsonl``, ``metrics.prom``,
``profile.txt``).

Every command accepts ``--seed`` / ``--scale`` (and ``--days`` where a
campaign runs), mirroring the ``REPRO_*`` environment knobs the
benchmark harness uses.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

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
    p_exp.add_argument("id", choices=EXPERIMENTS)
    profile_opt(p_exp)
    common(p_exp)

    p_loop = sub.add_parser("quickloop",
                            help="pilot scan + campaign + detection")
    p_loop.add_argument("--region", default="us-west1")
    common(p_loop)

    p_camp = sub.add_parser("campaign",
                            help="run one campaign, optionally with "
                                 "deterministic fault injection")
    p_camp.add_argument("--region", default=None,
                        help="deployment region (default: the "
                             "provider's default region)")
    p_camp.add_argument("--servers", type=int, default=8,
                        help="server budget for the deployment")
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
                        help="comma-separated extra providers to add "
                             "to the fleet for cross-cloud workloads")
    p_camp.add_argument("--matrix", action="store_true",
                        help="skip the campaign; run the cross-cloud "
                             "VM-pair matrix and the provider-choice "
                             "analysis over the fleet instead")
    p_camp.add_argument("--stream", action="store_true",
                        help="attach the incremental streaming detector "
                             "to the event bus and verify its finalized "
                             "report equals batch detection")
    p_camp.add_argument("--rules", metavar="FILE",
                        help="attach the alerting collector with this "
                             "JSON rules file and print the "
                             "notification log after the campaign")
    profile_opt(p_camp)
    common(p_camp)

    p_serve = sub.add_parser("serve",
                             help="run a campaign as an always-on "
                                  "monitor with cached query serving")
    p_serve.add_argument("--region", default="us-west1")
    p_serve.add_argument("--servers", type=int, default=8,
                         help="server budget for the deployment")
    p_serve.add_argument("--faults", choices=("off", "default", "heavy"),
                         default="off",
                         help="fault-injection plan (seed-deterministic)")
    p_serve.add_argument("--window-days", type=int, default=None,
                         help="sliding window for the live congested "
                              "label (default: all sealed days)")
    p_serve.add_argument("--consumers", type=int, default=100_000,
                         help="simulated dashboard queries per hour")
    p_serve.add_argument("--ttl-hours", type=float, default=1.0,
                         help="snapshot cache TTL in simulated hours")
    p_serve.add_argument("--format",
                         choices=("summary", "state", "prom", "jsonl"),
                         default="summary", dest="fmt",
                         help="summary = text table + congested list, "
                              "state = live-state JSON document, "
                              "prom = Prometheus text, jsonl = JSON "
                              "lines")
    p_serve.add_argument("--rules", metavar="FILE",
                         help="evaluate this JSON rules file on the "
                              "live state; alert state joins the "
                              "snapshot/prom exports")
    common(p_serve)

    p_daemon = sub.add_parser("daemon",
                              help="keep one collector alive across N "
                                   "successive campaign runs")
    p_daemon.add_argument("--runs", type=int, default=3,
                          help="number of successive campaigns to "
                               "replay into the collector")
    p_daemon.add_argument("--region", default="us-west1")
    p_daemon.add_argument("--servers", type=int, default=8,
                          help="server budget for each deployment")
    p_daemon.add_argument("--rules", metavar="FILE",
                          help="JSON rules file (default: the shipped "
                               "rule set)")
    p_daemon.add_argument("--state", metavar="PATH",
                          help="resume the collector from PATH when it "
                               "exists and save it back afterwards "
                               "(skips finalize so the daemon can keep "
                               "going)")
    p_daemon.add_argument("--format", choices=("summary", "jsonl"),
                          default="summary", dest="fmt",
                          help="summary = continuity table + log, "
                               "jsonl = notification log only")
    common(p_daemon)

    p_alerts = sub.add_parser("alerts",
                              help="run one campaign with the alerting "
                                   "collector and print the "
                                   "notification log")
    p_alerts.add_argument("--region", default="us-west1")
    p_alerts.add_argument("--servers", type=int, default=8,
                          help="server budget for the deployment")
    p_alerts.add_argument("--faults",
                          choices=("off", "default", "heavy"),
                          default="off",
                          help="fault-injection plan "
                               "(seed-deterministic)")
    p_alerts.add_argument("--rules", metavar="FILE",
                          help="JSON rules file (default: the shipped "
                               "rule set)")
    p_alerts.add_argument("--format",
                          choices=("summary", "jsonl", "prom"),
                          default="summary", dest="fmt",
                          help="summary = table + log, jsonl = "
                               "notification log, prom = ALERTS "
                               "series + collector metrics")
    common(p_alerts)

    p_obs = sub.add_parser("obs",
                           help="run an instrumented campaign and dump "
                                "the span tree / metrics")
    p_obs.add_argument("--region", default="us-west1")
    p_obs.add_argument("--servers", type=int, default=8,
                       help="server budget for the deployment")
    p_obs.add_argument("--faults", choices=("off", "default", "heavy"),
                       default="off",
                       help="fault-injection plan (seed-deterministic)")
    p_obs.add_argument("--format", choices=("tree", "jsonl", "prom"),
                       default="tree", dest="fmt",
                       help="tree = span tree + metric summary, jsonl = "
                            "spans and metrics as JSON lines, prom = "
                            "Prometheus text format")
    p_obs.add_argument("--capacity", type=int, default=4096,
                       help="flight recorder capacity (spans retained)")
    common(p_obs)

    p_world = sub.add_parser("world",
                             help="generate a world and print inventory")
    common(p_world, days=False)

    p_cost = sub.add_parser("cost",
                            help="estimate the cloud bill for a campaign")
    p_cost.add_argument("--servers", type=int, default=450)
    p_cost.add_argument("--days", type=int, default=30)
    p_cost.add_argument("--tier", choices=("premium", "standard"),
                        default="premium")

    p_lint = sub.add_parser("lint",
                            help="run the invariant checker "
                                 "(python -m repro.lint)")
    p_lint.add_argument("paths", nargs="*", default=["src/repro"])
    p_lint.add_argument("--select", metavar="CODES")
    p_lint.add_argument("--baseline", metavar="FILE")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        dest="fmt", default="text")
    p_lint.add_argument("--graph", action="store_true")
    p_lint.add_argument("--no-cache", action="store_true")
    p_lint.add_argument("--list-rules", action="store_true")
    return parser


def _write_profile(profile_dir: str) -> None:
    """Dump the enabled obs state as a profile directory and say so."""
    import repro.obs as obs
    from repro.obs.exporters import write_profile

    files = write_profile(profile_dir, obs.tracer(), obs.registry())
    print(f"profile: {len(files)} files -> {profile_dir}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    import os
    os.environ.setdefault("REPRO_SEED", str(args.seed))
    os.environ.setdefault("REPRO_SCALE", str(args.scale))
    os.environ.setdefault("REPRO_DAYS", str(args.days))
    import repro.obs as obs
    from repro import experiments
    from repro.experiments import shared_scenario
    module = getattr(experiments, args.id)
    if args.profile:
        obs.enable()
    try:
        cache = shared_scenario(seed=args.seed, scale=args.scale)
        result = module.run(cache)
        print(module.render(result))
        if args.profile:
            _write_profile(args.profile)
    finally:
        if args.profile:
            obs.disable()
    return 0


def _cmd_quickloop(args: argparse.Namespace) -> int:
    from repro.core.congestion import detect
    from repro.experiments import build_scenario
    from repro.report.tables import TextTable, format_percent

    scenario = build_scenario(seed=args.seed, scale=args.scale)
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(args.region)
    plan = clasp.deploy_topology(args.region, selection)
    dataset = clasp.run_campaign([plan], days=args.days)
    report = detect(dataset)
    table = TextTable(["metric", "value"],
                      title=f"{args.region}: {args.days}-day campaign")
    table.add_row(["servers measured", len(plan.server_ids)])
    table.add_row(["tests completed", dataset.completed_tests])
    table.add_row(["congested s-days",
                   format_percent(report.congested_day_fraction)])
    table.add_row(["congested s-hours",
                   format_percent(report.congested_hour_fraction, 2)])
    table.add_row(["congested servers", len(report.congested_pairs())])
    table.add_row(["cloud bill", f"${clasp.total_cost_usd():,.2f}"])
    print(table.render())
    return 0


def _parse_extra_providers(spec) -> tuple:
    return tuple(p.strip() for p in (spec or "").split(",") if p.strip())


def _cmd_campaign(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.cloud.providers import get_provider
    from repro.core.export import dataset_digest, export_dataset
    from repro.engine import MetricsObserver, TraceObserver
    from repro.experiments import build_scenario
    from repro.faults import FaultPlan
    from repro.report.tables import TextTable

    plans = {"off": None, "default": FaultPlan.default(),
             "heavy": FaultPlan.heavy()}
    fault_plan = plans[args.faults]
    provider = get_provider(args.provider)
    extras = _parse_extra_providers(args.providers)
    region = args.region or provider.default_region
    if args.matrix:
        return _cmd_matrix(args, extras)
    if args.profile:
        # Before scenario build so deployment/selection spans land in
        # the profile too, not just the campaign hours.
        obs.enable()
    try:
        scenario = build_scenario(seed=args.seed, scale=args.scale,
                                  faults=fault_plan,
                                  provider=provider.name,
                                  providers=extras)
        clasp = scenario.clasp
        selection = clasp.select_topology_servers(region)
        plan = clasp.deploy_topology(region, selection,
                                     budget_servers=args.servers)
        observers = []
        metrics = None
        if args.metrics:
            metrics = MetricsObserver()
            observers.append(metrics)
        trace = None
        if args.trace:
            trace = TraceObserver(args.trace)
            observers.append(trace)
        stream_detector = None
        if args.stream:
            stream_detector, stream_observer = clasp.streaming_detector()
            observers.append(stream_observer)
        alerts_collector = None
        if args.rules:
            from repro.alerts import load_rules
            alerts_collector, alerts_observer = clasp.collector(
                rules=load_rules(args.rules))
            observers.append(alerts_observer)
        try:
            dataset = clasp.run_campaign([plan], days=args.days,
                                         observers=observers,
                                         batch=args.batch)
        finally:
            if trace is not None:
                trace.close()
        if args.profile:
            _write_profile(args.profile)
    finally:
        if args.profile:
            obs.disable()
    table = TextTable(["metric", "value"],
                      title=f"{provider.name}/{region}: {args.days}-day "
                            f"campaign (faults={args.faults})")
    table.add_row(["servers measured", len(plan.server_ids)])
    table.add_row(["tests completed", dataset.completed_tests])
    table.add_row(["tests failed", dataset.failed_tests])
    table.add_row(["tests retried", dataset.retried_tests])
    table.add_row(["slots lost", dataset.lost_tests])
    for reason, count in sorted(dataset.lost_by_reason().items()):
        table.add_row([f"  lost to {reason}", count])
    injector = clasp.fault_injector
    if injector is not None:
        for kind, count in sorted(injector.summary().items()):
            table.add_row([f"  injected {kind}", count])
    table.add_row(["dataset digest", dataset_digest(dataset)[:16]])
    table.add_row(["cloud bill", f"${clasp.total_cost_usd():,.2f}"])
    if stream_detector is not None:
        from repro.core.congestion import detect
        streamed = stream_detector.finalize()
        batch = detect(dataset)
        table.add_row(["stream V_H events", len(streamed.events)])
        table.add_row(["stream congested servers",
                       len(streamed.congested_pairs())])
        table.add_row(["stream late-dropped",
                       stream_detector.late_dropped])
        table.add_row(["stream == batch detect",
                       "yes" if streamed == batch else "NO"])
    if alerts_collector is not None:
        alerts_collector.finalize()
        evaluator = alerts_collector.evaluator
        table.add_row(["alert rules", len(evaluator.rules)])
        table.add_row(["alert notifications",
                       len(evaluator.notifications)])
        table.add_row(["alerts firing now", evaluator.active_count])
    print(table.render())
    if alerts_collector is not None:
        from repro.alerts import notifications_to_jsonlines
        print(notifications_to_jsonlines(
            alerts_collector.evaluator.notifications), end="")
    if metrics is not None:
        snapshot = metrics.snapshot()
        events = TextTable(["event", "count"], title="engine events")
        for kind, count in snapshot["events"].items():
            events.add_row([kind, count])
        for category, usd in snapshot["usd_by_category"].items():
            events.add_row([f"  billed {category}", f"${usd:,.2f}"])
        print(events.render())
    if trace is not None:
        print(f"trace: {trace.n_written} events -> {args.trace}")
    if args.export:
        manifest = export_dataset(dataset, args.export)
        print(f"exported to {manifest.parent}")
    return 0


def _cmd_matrix(args: argparse.Namespace, extras: tuple) -> int:
    from repro.core.crosscloud import provider_choice, run_matrix
    from repro.experiments import build_scenario
    from repro.report.crosscloud import (render_matrix,
                                         render_provider_choice)

    scenario = build_scenario(seed=args.seed, scale=args.scale,
                              provider=args.provider, providers=extras)
    fleet = scenario.fleet
    if len(fleet) < 2:
        print("--matrix needs at least two providers; add some with "
              "--providers, e.g. --providers aws,openstack",
              file=sys.stderr)
        return 2
    matrix = run_matrix(fleet)
    print(render_matrix(matrix))
    primary = fleet.names()[0]
    for other in fleet.names()[1:]:
        choice = provider_choice(fleet, scenario.catalog,
                                 scenario.clasp.prefix2as,
                                 primary, other, seed=args.seed)
        print()
        print(render_provider_choice(choice))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments import build_scenario
    from repro.faults import FaultPlan
    from repro.report.tables import TextTable
    from repro.rng import SeedTree
    from repro.serve import ConsumerLoadObserver, MonitorService
    from repro.units import HOUR

    plans = {"off": None, "default": FaultPlan.default(),
             "heavy": FaultPlan.heavy()}
    scenario = build_scenario(seed=args.seed, scale=args.scale,
                              faults=plans[args.faults])
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(args.region)
    plan = clasp.deploy_topology(args.region, selection,
                                 budget_servers=args.servers)
    evaluator = None
    if args.rules:
        from repro.alerts import load_rules
        collector, observer = clasp.collector(
            rules=load_rules(args.rules), window_days=args.window_days)
        detector = collector.detector
        evaluator = collector.evaluator
    else:
        detector, observer = clasp.streaming_detector(
            window_days=args.window_days)
    service = MonitorService(detector, ttl_s=args.ttl_hours * HOUR,
                             evaluator=evaluator)
    load = ConsumerLoadObserver(service,
                                SeedTree(args.seed).child("serve"),
                                consumers_per_hour=args.consumers)
    clasp.run_campaign([plan], days=args.days,
                       observers=[observer, load])
    if args.fmt == "state":
        print(service.state_json(now_ts=detector.watermark))
        return 0
    if args.fmt == "prom":
        print(service.prometheus(), end="")
        return 0
    if args.fmt == "jsonl":
        print(service.json_lines(), end="")
        return 0
    report = service.load_report()
    table = TextTable(["metric", "value"],
                      title=f"monitor service: {args.region}, "
                            f"{args.days} days, {args.consumers:,} "
                            f"consumers/hour")
    table.add_row(["pairs tracked", len(detector.pairs())])
    table.add_row(["congested now", len(detector.congested_pairs())])
    table.add_row(["sealed pair-days", detector.sealed_days])
    table.add_row(["observations", detector.observed])
    table.add_row(["late dropped", detector.late_dropped])
    table.add_row(["snapshot version", detector.version])
    table.add_row(["queries served", f"{report.queries:,}"])
    table.add_row(["cache hit rate", f"{report.hit_rate:.4f}"])
    table.add_row(["mean staleness", f"{report.mean_staleness_s:.0f} s"])
    if evaluator is not None:
        table.add_row(["alert rules", len(evaluator.rules)])
        table.add_row(["alert notifications",
                       len(evaluator.notifications)])
        table.add_row(["alerts firing now", evaluator.active_count])
    print(table.render())
    for pair in detector.congested_pairs():
        print(f"congested: {'/'.join(pair)}")
    if evaluator is not None:
        for rule, since_ts in evaluator.firing():
            print(f"firing: {rule.name} ({rule.severity}) "
                  f"since sim ts {since_ts:.0f}")
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.alerts import (Collector, concat_datasets, default_rules,
                              load_rules, notifications_to_jsonlines)
    from repro.core.congestion import detect
    from repro.experiments import build_scenario
    from repro.report.tables import TextTable
    from repro.simclock import CAMPAIGN_START
    from repro.units import DAY

    rules = load_rules(args.rules) if args.rules else default_rules()
    collector = None
    resumed = False
    if args.state and Path(args.state).exists():
        collector = Collector.from_state_json(
            Path(args.state).read_text(encoding="utf-8"), rules=rules)
        resumed = True
    datasets = []
    watermarks = []
    for _ in range(args.runs):
        # Run k of a daemon sequence covers simulated days
        # [k*days, (k+1)*days); the world rebuilds identically from
        # the seed, only simulated time moves.
        run_index = collector.runs if collector is not None else 0
        run_start = float(CAMPAIGN_START) + run_index * args.days * DAY
        scenario = build_scenario(seed=args.seed, scale=args.scale)
        clasp = scenario.clasp
        selection = clasp.select_topology_servers(args.region)
        plan = clasp.deploy_topology(args.region, selection,
                                     budget_servers=args.servers)
        collector, observer = clasp.collector(rules=rules,
                                              collector=collector)
        dataset = clasp.run_campaign([plan], days=args.days,
                                     start_ts=run_start,
                                     observers=[observer])
        datasets.append(dataset)
        watermarks.append(collector.detector.watermark)
    monotone = all(later > earlier for earlier, later
                   in zip(watermarks, watermarks[1:]))
    if args.state:
        # Keep the collector resumable: no finalize (it would seal
        # still-open days and late-drop the next run's data).
        Path(args.state).write_text(collector.state_json(),
                                    encoding="utf-8")
    else:
        report = collector.finalize()
    evaluator = collector.evaluator
    if args.fmt == "jsonl":
        print(notifications_to_jsonlines(evaluator.notifications),
              end="")
        return 0
    detector = collector.detector
    table = TextTable(["metric", "value"],
                      title=f"daemon: {args.runs} x {args.days}-day "
                            f"runs, {args.region}"
                            + (" (resumed)" if resumed else ""))
    table.add_row(["total runs", collector.runs])
    table.add_row(["watermarks strictly monotone",
                   "yes" if monotone else "NO"])
    table.add_row(["observations", detector.observed])
    table.add_row(["late dropped", detector.late_dropped])
    table.add_row(["sealed pair-days", detector.sealed_days])
    if args.state:
        table.add_row(["state saved", args.state])
    else:
        batch = detect(concat_datasets(datasets))
        table.add_row(["V_H events", len(report.events)])
        table.add_row(["stream == batch on concat",
                       "yes" if report == batch else "NO"])
    table.add_row(["alert rules", len(evaluator.rules)])
    table.add_row(["rule evaluations", evaluator.evaluations])
    table.add_row(["alert notifications", len(evaluator.notifications)])
    table.add_row(["alerts firing now", evaluator.active_count])
    print(table.render())
    print(notifications_to_jsonlines(evaluator.notifications), end="")
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    from repro.alerts import (alerts_to_prometheus, default_rules,
                              load_rules, notifications_to_jsonlines)
    from repro.experiments import build_scenario
    from repro.faults import FaultPlan
    from repro.obs.exporters import metrics_to_prometheus
    from repro.report.tables import TextTable

    plans = {"off": None, "default": FaultPlan.default(),
             "heavy": FaultPlan.heavy()}
    rules = load_rules(args.rules) if args.rules else default_rules()
    scenario = build_scenario(seed=args.seed, scale=args.scale,
                              faults=plans[args.faults])
    clasp = scenario.clasp
    selection = clasp.select_topology_servers(args.region)
    plan = clasp.deploy_topology(args.region, selection,
                                 budget_servers=args.servers)
    collector, observer = clasp.collector(rules=rules)
    clasp.run_campaign([plan], days=args.days, observers=[observer])
    collector.finalize()
    evaluator = collector.evaluator
    if args.fmt == "jsonl":
        print(notifications_to_jsonlines(evaluator.notifications),
              end="")
        return 0
    if args.fmt == "prom":
        print(metrics_to_prometheus(collector.registry.snapshot()),
              end="")
        print(alerts_to_prometheus(evaluator), end="")
        return 0
    table = TextTable(["metric", "value"],
                      title=f"alerts: {args.region}, {args.days} days, "
                            f"{len(rules)} rules")
    table.add_row(["observations", collector.detector.observed])
    table.add_row(["sealed pair-days", collector.detector.sealed_days])
    table.add_row(["rule evaluations", evaluator.evaluations])
    table.add_row(["notifications", len(evaluator.notifications)])
    table.add_row(["firing now", evaluator.active_count])
    print(table.render())
    print(notifications_to_jsonlines(evaluator.notifications), end="")
    for rule, since_ts in evaluator.firing():
        print(f"firing: {rule.name} ({rule.severity}) "
              f"since sim ts {since_ts:.0f}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.experiments import build_scenario
    from repro.faults import FaultPlan
    from repro.obs.exporters import (metrics_to_jsonlines,
                                     metrics_to_prometheus,
                                     render_span_tree, spans_to_jsonlines)

    plans = {"off": None, "default": FaultPlan.default(),
             "heavy": FaultPlan.heavy()}
    obs.enable(capacity=args.capacity)
    try:
        scenario = build_scenario(seed=args.seed, scale=args.scale,
                                  faults=plans[args.faults])
        clasp = scenario.clasp
        selection = clasp.select_topology_servers(args.region)
        plan = clasp.deploy_topology(args.region, selection,
                                     budget_servers=args.servers)
        clasp.run_campaign([plan], days=args.days)
        tracer = obs.tracer()
        snapshot = obs.snapshot()
        spans = tracer.finished()
        if args.fmt == "tree":
            print(render_span_tree(spans).rstrip("\n"))
            recorder = tracer.recorder
            print(f"spans: {recorder.n_recorded} recorded, "
                  f"{recorder.n_dropped} dropped | layers: "
                  f"{', '.join(tracer.layers())} | metrics: "
                  f"{obs.registry().n_metrics}")
        elif args.fmt == "jsonl":
            print(spans_to_jsonlines(spans), end="")
            print(metrics_to_jsonlines(snapshot), end="")
        else:
            print(metrics_to_prometheus(snapshot,
                                        recorder=tracer.recorder),
                  end="")
    finally:
        obs.disable()
    return 0


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
    from repro.cloud.tiers import NetworkTier
    from repro.core.orchestrator import Orchestrator
    from repro.report.tables import TextTable
    from repro.units import transferred_bytes

    tier = NetworkTier(args.tier)
    n_vms = Orchestrator.vms_needed(args.servers)
    costs = CostTracker()
    vm_usd = costs.charge_vm_hours(0.095 * n_vms, args.days * 24)
    tests = args.servers * 24 * args.days
    upload_bytes = transferred_bytes(95.0, 15.0)  # per test
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


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.fmt != "text":
        argv += ["--format", args.fmt]
    if args.graph:
        argv.append("--graph")
    if args.no_cache:
        argv.append("--no-cache")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "experiment": _cmd_experiment,
    "quickloop": _cmd_quickloop,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "daemon": _cmd_daemon,
    "alerts": _cmd_alerts,
    "obs": _cmd_obs,
    "world": _cmd_world,
    "cost": _cmd_cost,
    "lint": _cmd_lint,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
