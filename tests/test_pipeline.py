"""The memoized pipeline: one span per stage, and its budgets.

The shape checks run through the CLI (``tests/test_cli.py``), which
also asserts that a bad shape builds no world.
"""

import repro.obs as obs
from repro.experiments import Pipeline

from .fixtures_congestion import GOLDEN_SHAPE, golden_pipeline


def test_each_stage_runs_once_in_its_span():
    obs.enable()
    try:
        pipeline = golden_pipeline()
        for _ in range(2):
            dataset = pipeline.topology_dataset()
            report = pipeline.report()
        calls = {row.name: row.calls for row in obs.tracer().totals()}
    finally:
        obs.disable()
    assert report.n_s_hours > 0 and len(dataset) > 0
    for name in ("scenario.build", "selection.topology.run",
                 "orchestrator.deploy", "campaign.run",
                 "analysis.congestion_detect"):
        assert calls[name] == 1, name


def test_budget_caps_every_region_and_none_means_the_paper_caps():
    capped = golden_pipeline()
    assert len(capped.topology_plans()[0].server_ids) == \
        GOLDEN_SHAPE["budget"]
    # us-west1 has no paper cap: every selected server is deployed.
    uncapped = Pipeline(**dict(GOLDEN_SHAPE, budget=None))
    plan = uncapped.topology_plan("us-west1")
    selected = uncapped.topology_selection("us-west1").selected_ids()
    assert plan.server_ids == selected
    assert len(selected) > GOLDEN_SHAPE["budget"]
