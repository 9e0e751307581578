"""Shared experiment state for the table/figure modules.

Regenerating a world and re-running a multi-week campaign for every
figure would repeat minutes of identical work, so the modules share one
:class:`ExperimentCache` built for a (seed, scale, days): the scenario,
the pilot selections, and the campaign datasets are computed once and
reused by every table/figure module.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cloud.regions import PAPER_DIFFERENTIAL_REGIONS, PAPER_US_REGIONS
from ..core.campaign import CampaignDataset
from ..core.orchestrator import DeploymentPlan
from ..core.selection.differential import DifferentialSelection
from ..core.selection.topology_based import TopologySelection
from .scenario import Scenario, apply_differential_story, build_scenario

__all__ = ["ExperimentCache"]

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


class ExperimentCache:
    """Lazily computed, shared experiment state.

    *days* is the length of both shared campaigns (the paper ran 153).
    """

    def __init__(self, seed: int, scale: float, days: int = 28) -> None:
        self.seed = seed
        self.scale = scale
        self.days = days
        self._scenario: Optional[Scenario] = None
        self._topology_plans: Dict[str, DeploymentPlan] = {}
        self._differential_selections: Dict[str, DifferentialSelection] = {}
        self._differential_plans: Dict[str, DeploymentPlan] = {}
        self._topology_dataset: Optional[CampaignDataset] = None
        self._differential_dataset: Optional[CampaignDataset] = None

    # ------------------------------------------------------------------

    @property
    def scenario(self) -> Scenario:
        if self._scenario is None:
            self._scenario = build_scenario(seed=self.seed, scale=self.scale)
        return self._scenario

    def topology_selection(self, region: str) -> TopologySelection:
        return self.scenario.clasp.select_topology_servers(region)

    def budget_for(self, region: str) -> Optional[int]:
        """The paper's budget cap, scaled to this scenario's link count."""
        ratio = PAPER_BUDGET_RATIOS.get(region)
        if ratio is None:
            return None
        selection = self.topology_selection(region)
        return max(5, int(round(ratio * selection.n_links_traversed)))

    def topology_plan(self, region: str) -> DeploymentPlan:
        plan = self._topology_plans.get(region)
        if plan is None:
            selection = self.topology_selection(region)
            plan = self.scenario.clasp.deploy_topology(
                region, selection, budget_servers=self.budget_for(region))
            self._topology_plans[region] = plan
        return plan

    def differential_selection(self, region: str) -> DifferentialSelection:
        selection = self._differential_selections.get(region)
        if selection is None:
            scenario = self.scenario
            # The paper used 15 servers (us-central1/us-east1) and 17
            # (europe-west1); a differential deployment is only two VMs
            # per region, so the count does not scale down with the
            # world (small catalogs simply yield fewer candidates).
            target = 17 if region == "europe-west1" else 15
            selection = scenario.clasp.select_differential_servers(
                region, target_count=target)
            apply_differential_story(scenario, selection)
            self._differential_selections[region] = selection
        return selection

    def differential_plan(self, region: str) -> DeploymentPlan:
        plan = self._differential_plans.get(region)
        if plan is None:
            selection = self.differential_selection(region)
            plan = self.scenario.clasp.deploy_differential(region, selection)
            self._differential_plans[region] = plan
        return plan

    # ------------------------------------------------------------------

    def topology_dataset(self) -> CampaignDataset:
        """The U.S.-regions topology-based campaign (shared)."""
        if self._topology_dataset is None:
            plans = [self.topology_plan(r)
                     for r in PAPER_US_REGIONS]
            self._topology_dataset = self.scenario.clasp.run_campaign(
                plans, days=self.days)
        return self._topology_dataset

    def differential_dataset(self) -> CampaignDataset:
        """The three-region differential campaign (shared)."""
        if self._differential_dataset is None:
            plans = [self.differential_plan(r)
                     for r in PAPER_DIFFERENTIAL_REGIONS]
            self._differential_dataset = self.scenario.clasp.run_campaign(
                plans, days=self.days)
        return self._differential_dataset
