"""The CLASP facade: one object that runs the whole methodology.

Wires the substrate (cloud platform + server catalogs + tooling) to
the selection, orchestration, campaign, and analysis stages, in the
paper's workflow:

    clasp = Clasp.build(internet, catalog, seeds)
    pilot = clasp.select_topology_servers("us-west1")
    plan = clasp.deploy_topology("us-west1", pilot, budget_servers=106)
    dataset = clasp.run_campaign([plan], days=14)
    report = detect(dataset)  # from repro.core.congestion

:class:`repro.experiments.Pipeline` runs that sequence, memoized and
one span per stage, for the CLI, the experiments, the benches and the
examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..cloud.api import CloudPlatform
from ..cloud.billing import CostTracker
from ..cloud.providers import get_provider
from ..cloud.regions import PAPER_DIFFERENTIAL_REGIONS
from ..errors import ValidationError
from ..faults import FaultInjector, FaultPlan
from ..netsim.generator import GeneratedInternet
from ..rng import SeedTree
from ..simclock import CAMPAIGN_START
from ..speedtest.catalog import ServerCatalog
from ..speedtest.protocol import SpeedTestEngine
from ..tools.bdrmap import AliasResolver, Bdrmap
from ..tools.ipinfo import IpInfoDatabase
from ..tools.prefix2as import Prefix2AS, build_prefix2as
from ..tools.speedchecker import Speedchecker, TupleMedian
from ..tools.traceroute import Scamper
from .campaign import CampaignConfig, CampaignDataset, CampaignRunner
from .orchestrator import DeploymentPlan, Orchestrator
from .selection.differential import DifferentialSelection, DifferentialSelector
from .selection.topology_based import TopologySelection, TopologySelector

__all__ = ["Clasp"]


class Clasp:
    """End-to-end driver of the measurement methodology."""

    def __init__(self, platform: CloudPlatform, catalog: ServerCatalog,
                 prefix2as: Prefix2AS, scamper: Scamper, bdrmap: Bdrmap,
                 ipinfo: IpInfoDatabase, speedchecker: Speedchecker,
                 engine: SpeedTestEngine, seeds: SeedTree,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.platform = platform
        self.catalog = catalog
        self.prefix2as = prefix2as
        self.scamper = scamper
        self.bdrmap = bdrmap
        self.ipinfo = ipinfo
        self.speedchecker = speedchecker
        self.engine = engine
        self.seeds = seeds
        self.orchestrator = Orchestrator(platform)
        self.fault_plan = fault_plan
        self.runner = CampaignRunner(platform, catalog, engine,
                                     seeds=seeds.child("campaign"),
                                     fault_plan=fault_plan,
                                     orchestrator=self.orchestrator)
        self._topology_selections: Dict[str, TopologySelection] = {}
        self._differential_selections: Dict[Tuple[str, int],
                                            DifferentialSelection] = {}
        self._speedchecker_medians: Optional[List[TupleMedian]] = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, internet: GeneratedInternet, catalog: ServerCatalog,
              seeds: Optional[SeedTree] = None,
              fault_plan: Optional[FaultPlan] = None,
              provider: Optional[str] = None,
              cloud_asn: Optional[int] = None) -> "Clasp":
        """Assemble a full CLASP stack over a generated Internet.

        With a *fault_plan*, the campaign runner builds a seed-derived
        :class:`~repro.faults.FaultInjector` and wires its streams into
        the speed-test engine, the storage service, and the link-state
        evaluator; the same seed then reproduces the same faults.

        *provider* picks the cloud the stack measures from (default
        GCP); *cloud_asn* is the ASN of that provider's WAN in the
        topology, when it is not the Internet's native cloud (see
        :meth:`~repro.netsim.generator.TopologyGenerator.add_cloud_wan`).
        """
        seeds = seeds or SeedTree(0)
        prov = get_provider(provider)
        costs = CostTracker(prices=prov.price_book)
        platform = CloudPlatform(internet, cost_tracker=costs,
                                 provider=prov, cloud_asn=cloud_asn)
        p2a = build_prefix2as(internet.topology)
        scamper = Scamper(internet.topology, platform.router,
                          platform.evaluator, seeds.child("scamper"))
        bdr = Bdrmap(internet.topology, scamper, p2a, platform.cloud_asn,
                     AliasResolver(internet.topology,
                                   seeds=seeds.child("alias")))
        ipinfo = IpInfoDatabase(internet.topology, p2a,
                                seeds=seeds.child("ipinfo"))
        checker = Speedchecker(platform, seeds=seeds.child("speedchecker"))
        engine = SpeedTestEngine(platform, seeds=seeds.child("engine"))
        return cls(platform, catalog, p2a, scamper, bdr, ipinfo, checker,
                   engine, seeds, fault_plan=fault_plan)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The campaign's injector (None when faults are disabled)."""
        return self.runner.injector

    # ------------------------------------------------------------------
    # selection

    def select_topology_servers(self, region: str) -> TopologySelection:
        """Run (and cache) the topology-based pilot scan for a region."""
        cached = self._topology_selections.get(region)
        if cached is not None:
            return cached
        selector = TopologySelector(self.bdrmap, self.scamper,
                                    self.prefix2as, self.catalog)
        src_pop = self.platform.region_pop(region)
        selection = selector.run(region, src_pop.pop_id,
                                 float(CAMPAIGN_START))
        self._topology_selections[region] = selection
        self._publish_memo_counts()
        return selection

    def speedchecker_medians(self) -> List[TupleMedian]:
        """Run (and cache) the Speedchecker preliminary latency study.

        The study probes the paper's differential regions
        (:data:`~repro.cloud.regions.PAPER_DIFFERENTIAL_REGIONS`).
        """
        if self._speedchecker_medians is None:
            with obs.span("tools.speedchecker.measure"):
                self._speedchecker_medians = self.speedchecker.measure(
                    list(PAPER_DIFFERENTIAL_REGIONS),
                    start_ts=float(CAMPAIGN_START))
        return self._speedchecker_medians

    def select_differential_servers(self, region: str,
                                    target_count: int = 16
                                    ) -> DifferentialSelection:
        """Differential-based selection for one region (cached per
        region and target count)."""
        key = (region, target_count)
        cached = self._differential_selections.get(key)
        if cached is not None:
            return cached
        selector = DifferentialSelector(self.catalog, self.prefix2as)
        selection = selector.select(self.speedchecker_medians(), region,
                                    target_count=target_count)
        self._differential_selections[key] = selection
        return selection

    # ------------------------------------------------------------------
    # deployment + campaign

    def deploy_topology(self, region: str, selection: TopologySelection,
                        budget_servers: Optional[int] = None
                        ) -> DeploymentPlan:
        return self.orchestrator.deploy_topology(
            region, selection.selected_ids(), float(CAMPAIGN_START),
            budget_servers=budget_servers)

    def deploy_differential(self, region: str,
                            selection: DifferentialSelection
                            ) -> DeploymentPlan:
        return self.orchestrator.deploy_differential(
            region, selection.server_ids(), float(CAMPAIGN_START))

    def run_campaign(self, plans: Sequence[DeploymentPlan],
                     days: int = 14,
                     start_ts: float = float(CAMPAIGN_START),
                     charge_billing: bool = True,
                     observers: Sequence[object] = (),
                     batch: bool = False) -> CampaignDataset:
        """Run the measurement campaign over the deployed plans.

        *observers* are subscribed to the campaign's event bus (after
        the built-in dataset/billing observers) - e.g. a
        :class:`~repro.engine.observers.MetricsObserver` or
        :class:`~repro.engine.observers.TraceObserver`.

        ``batch=True`` routes the run through :mod:`repro.shard`'s
        vectorized stepper, which precomputes each hour's tests as
        numpy batches; the dataset is byte-identical either way.  The
        import is lazy so the core layer has no module-level dependency
        on the shard layer.
        """
        config = CampaignConfig(days=days, start_ts=start_ts,
                                charge_billing=charge_billing)
        if batch:
            from ..shard import batch_executor_factory
            dataset = self.runner.run(
                plans, config, observers=observers,
                executor_factory=batch_executor_factory)
        else:
            dataset = self.runner.run(plans, config, observers=observers)
        self._publish_memo_counts()
        if self.fault_injector is not None:
            for name, count in self.fault_injector.take_draw_counts().items():
                obs.inc(f"faults.{name}", count)
        return dataset

    def _publish_memo_counts(self) -> None:
        """Fold the pure-lookup memos' hit/miss totals into obs counters.

        Called once per stage, so the lookups themselves gain no call.
        """
        for prefix, memo_owner in (
                ("netsim.linkstate.memo", self.platform.evaluator),
                ("netsim.routing.border_memo", self.platform.router),
                ("tools.prefix2as.memo", self.prefix2as)):
            hits, misses = memo_owner.take_memo_counts()
            obs.inc(f"{prefix}_hits", hits)
            obs.inc(f"{prefix}_misses", misses)

    # ------------------------------------------------------------------
    # analysis

    def streaming_detector(self):
        """A live detector + bus observer pair for this stack.

        Offsets resolve through the same catalog/topology city table
        :meth:`CampaignRunner.register_metadata` uses, so the observer
        can be built before any dataset exists and subscribed to
        :meth:`run_campaign` via ``observers=[observer]``.
        """
        from .streaming import (StreamingCongestionDetector,
                                StreamingDetectorObserver, catalog_offsets)
        detector = StreamingCongestionDetector(
            float(CAMPAIGN_START),
            catalog_offsets(self.catalog, self.platform.topology))
        return detector, StreamingDetectorObserver(detector)

    def collector(self, rules: Sequence = (), collector=None):
        """A daemon collector + bus observer pair for this stack.

        Pass an existing *collector* to attach a successive campaign
        run to it - the daemon pattern: one detector, registry,
        history, and rule engine outlive any single Clasp.  Either
        way ``begin_run()`` binds this stack's catalog offsets and
        provider before the observer is handed back, so the returned
        observer can go straight into
        ``run_campaign(observers=[observer])``.  *rules* build a new
        collector; an existing one keeps the rules it was built with,
        so passing both raises :class:`~repro.errors.ValidationError`.
        """
        from ..alerts import Collector
        from .streaming import catalog_offsets
        if collector is None:
            collector = Collector(float(CAMPAIGN_START), rules=rules)
        elif rules:
            raise ValidationError(
                "pass rules only when Clasp.collector() builds the "
                "collector; an existing collector keeps its own rules")
        collector.begin_run(
            catalog_offsets(self.catalog, self.platform.topology),
            provider=self.platform.provider.name)
        return collector, collector.observer()

    def total_cost_usd(self) -> float:
        """Money spent so far (VMs + egress + storage)."""
        return self.platform.costs.total_usd
