"""Shared experiment state for the benchmark harness.

Regenerating a world and re-running a multi-week campaign for every
figure would repeat minutes of identical work, so benchmarks share one
:class:`ExperimentCache` keyed by (seed, scale): the scenario, the
pilot selections, and the campaign datasets are computed once and
reused by every table/figure module.

Environment knobs (read once, at first use):

* ``REPRO_SCALE``  - world scale (default 0.35 for benches; 1.0 is the
  paper's full size),
* ``REPRO_DAYS``   - campaign length in days (default 28; the paper
  ran 153),
* ``REPRO_SEED``   - root seed (default 7).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from ..core.campaign import CampaignDataset
from ..core.orchestrator import DeploymentPlan
from ..core.selection.differential import DifferentialSelection
from ..core.selection.topology_based import TopologySelection
from .scenario import Scenario, apply_differential_story, build_scenario

__all__ = ["ExperimentCache", "shared_scenario", "env_days"]

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


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return default if value is None else int(value)


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return default if value is None else float(value)


def env_days(default: int = 28) -> int:
    """Campaign length for benches, from ``REPRO_DAYS``."""
    return _env_int("REPRO_DAYS", default)


class ExperimentCache:
    """Lazily computed, shared experiment state."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
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
                region,
                regions_for_study=list(scenario.differential_regions),
                target_count=target)
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

    def topology_dataset(self, days: Optional[int] = None
                         ) -> CampaignDataset:
        """The U.S.-regions topology-based campaign (shared)."""
        if self._topology_dataset is None:
            plans = [self.topology_plan(r)
                     for r in self.scenario.us_regions]
            self._topology_dataset = self.scenario.clasp.run_campaign(
                plans, days=days or env_days())
        return self._topology_dataset

    def differential_dataset(self, days: Optional[int] = None
                             ) -> CampaignDataset:
        """The three-region differential campaign (shared)."""
        if self._differential_dataset is None:
            plans = [self.differential_plan(r)
                     for r in self.scenario.differential_regions]
            self._differential_dataset = self.scenario.clasp.run_campaign(
                plans, days=days or env_days())
        return self._differential_dataset


_CACHES: Dict[Tuple[int, float], ExperimentCache] = {}


def shared_scenario(seed: Optional[int] = None,
                    scale: Optional[float] = None) -> ExperimentCache:
    """The process-wide cache for (seed, scale), env-derived defaults."""
    seed = seed if seed is not None else _env_int("REPRO_SEED", 7)
    scale = scale if scale is not None else _env_float("REPRO_SCALE", 0.35)
    key = (seed, scale)
    cache = _CACHES.get(key)
    if cache is None:
        cache = ExperimentCache(seed, scale)
        _CACHES[key] = cache
    return cache
