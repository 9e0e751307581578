"""The CLASP pipeline: one memoized sequence behind every front door.

The paper's method is one fixed sequence (DESIGN.md §1): build the
world, run the pilot scans, deploy VMs within a budget, run the hourly
campaign, then detect congestion.  :class:`Pipeline` owns that sequence
for one shape, so the table/figure modules, the CLI, the benches, the
scripts and the examples run it the same way.  Each stage is lazy and
memoized, and runs inside exactly one :mod:`repro.obs` span, so
``Tracer.totals()`` reports the wall time of every stage:

* build - :attr:`Pipeline.scenario`, ``scenario.build``;
* topology selection, per region - :meth:`Pipeline.topology_selection`,
  ``selection.topology.run``;
* the differential study + story, per region -
  :meth:`Pipeline.differential_selection`, ``tools.speedchecker.measure``
  (once per world) and ``selection.differential.select``;
* deploy, per region - :meth:`Pipeline.topology_plan` and
  :meth:`Pipeline.differential_plan`, ``orchestrator.deploy``;
* the campaign - :meth:`Pipeline.topology_dataset` and
  :meth:`Pipeline.differential_dataset`, ``campaign.run``;
* detect - :meth:`Pipeline.report`, ``analysis.congestion_detect``.

The pipeline's campaigns run on the vectorized batch path, which is
byte-identical to the scalar one.  Callers that vary a campaign's
per-run arguments (observers, start time, batch execution, billing)
call ``pipeline.clasp.run_campaign`` on :meth:`Pipeline.topology_plans`
themselves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .. import obs
from ..cloud.providers import get_provider
from ..cloud.regions import PAPER_DIFFERENTIAL_REGIONS, PAPER_US_REGIONS
from ..core.campaign import CampaignDataset
from ..core.clasp import Clasp
from ..core.congestion import CongestionReport, detect
from ..core.orchestrator import DeploymentPlan
from ..core.selection.differential import DifferentialSelection
from ..core.selection.topology_based import TopologySelection
from ..errors import ValidationError
from ..faults import FaultPlan
from .scenario import Scenario, apply_differential_story, build_scenario

__all__ = ["Pipeline"]

#: The paper's budget caps, expressed as the ratio of measured servers
#: to links traversed (Table 1 col. 3 / col. 2), so the caps scale
#: with the scenario instead of being absolute counts.  ``None`` means
#: every selected server was deployed (us-west1, us-east1).
PAPER_BUDGET_RATIOS: Dict[str, Optional[float]] = {
    "us-west1": None,
    "us-west2": 25 / 121,
    "us-west4": 40 / 111,
    "us-east1": None,
    "us-east4": 40 / 111,
    "us-central1": 56 / 144,
}


class Pipeline:
    """Build → select → deploy → campaign → detect, computed lazily once.

    *days* is the length of every campaign the pipeline runs (the paper
    ran 153).  *regions* are the campaign's regions; ``None`` means the
    paper's: :data:`PAPER_US_REGIONS` for the topology campaign and
    :data:`PAPER_DIFFERENTIAL_REGIONS` for the differential one.
    *budget* caps the servers deployed per region; ``None`` means the
    paper's :data:`PAPER_BUDGET_RATIOS` caps.  *faults*, *provider* and
    *providers* go to :func:`build_scenario`.

    The shape is checked here, before the world is built.
    """

    def __init__(self, seed: int, scale: float, days: int = 28,
                 regions: Optional[Sequence[str]] = None,
                 budget: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 provider: str = "gcp",
                 providers: Sequence[str] = ()) -> None:
        if days < 1:
            raise ValidationError(f"days must be >= 1, got {days}")
        if budget is not None and budget < 1:
            raise ValidationError(
                f"budget_servers must be >= 1, got {budget}")
        self.topology_regions = tuple(regions or PAPER_US_REGIONS)
        self.differential_regions = tuple(regions
                                          or PAPER_DIFFERENTIAL_REGIONS)
        cloud = get_provider(provider)
        for region in self.topology_regions + self.differential_regions:
            cloud.region(region)
        self.seed = seed
        self.scale = scale
        self.days = days
        self.budget = budget
        self.faults = faults
        self.provider = provider
        self.providers = tuple(providers)
        self._scenario: Optional[Scenario] = None
        self._topology_plans: Dict[str, DeploymentPlan] = {}
        self._differential_selections: Dict[str, DifferentialSelection] = {}
        self._differential_plans: Dict[str, DeploymentPlan] = {}
        self._topology_dataset: Optional[CampaignDataset] = None
        self._differential_dataset: Optional[CampaignDataset] = None
        self._report: Optional[CongestionReport] = None

    # ------------------------------------------------------------------
    # build

    @property
    def scenario(self) -> Scenario:
        if self._scenario is None:
            self._scenario = build_scenario(
                seed=self.seed, scale=self.scale, faults=self.faults,
                provider=self.provider, providers=self.providers)
        return self._scenario

    @property
    def clasp(self) -> Clasp:
        return self.scenario.clasp

    # ------------------------------------------------------------------
    # selection + deploy

    def topology_selection(self, region: str) -> TopologySelection:
        return self.clasp.select_topology_servers(region)

    def _budget_for(self, region: str) -> Optional[int]:
        """*budget*, or the paper's cap scaled to this scenario's links."""
        if self.budget is not None:
            return self.budget
        ratio = PAPER_BUDGET_RATIOS.get(region)
        if ratio is None:
            return None
        selection = self.topology_selection(region)
        return max(5, int(round(ratio * selection.n_links_traversed)))

    def topology_plan(self, region: str) -> DeploymentPlan:
        plan = self._topology_plans.get(region)
        if plan is None:
            selection = self.topology_selection(region)
            budget = self._budget_for(region)
            with obs.span("orchestrator.deploy"):
                plan = self.clasp.deploy_topology(region, selection,
                                                  budget_servers=budget)
            self._topology_plans[region] = plan
        return plan

    def topology_plans(self) -> List[DeploymentPlan]:
        """One plan per topology region, selected and deployed in order."""
        return [self.topology_plan(r) for r in self.topology_regions]

    def differential_selection(self, region: str) -> DifferentialSelection:
        """The region's differential selection, with its story applied."""
        selection = self._differential_selections.get(region)
        if selection is None:
            # The paper used 15 servers (us-central1/us-east1) and 17
            # (europe-west1); a differential deployment is only two VMs
            # per region, so the count does not scale down with the
            # world (small catalogs simply yield fewer candidates).
            target = 17 if region == "europe-west1" else 15
            selection = self.clasp.select_differential_servers(
                region, target_count=target)
            apply_differential_story(self.scenario, selection)
            self._differential_selections[region] = selection
        return selection

    def differential_plan(self, region: str) -> DeploymentPlan:
        plan = self._differential_plans.get(region)
        if plan is None:
            selection = self.differential_selection(region)
            with obs.span("orchestrator.deploy"):
                plan = self.clasp.deploy_differential(region, selection)
            self._differential_plans[region] = plan
        return plan

    # ------------------------------------------------------------------
    # campaign + detect

    def topology_dataset(self) -> CampaignDataset:
        """The topology-based campaign over the topology regions."""
        if self._topology_dataset is None:
            self._topology_dataset = self.clasp.run_campaign(
                self.topology_plans(), days=self.days, batch=True)
        return self._topology_dataset

    def differential_dataset(self) -> CampaignDataset:
        """The differential campaign over the differential regions."""
        if self._differential_dataset is None:
            plans = [self.differential_plan(r)
                     for r in self.differential_regions]
            self._differential_dataset = self.clasp.run_campaign(
                plans, days=self.days, batch=True)
        return self._differential_dataset

    def report(self) -> CongestionReport:
        """Congestion detection over the topology campaign."""
        if self._report is None:
            self._report = detect(self.topology_dataset())
        return self._report
