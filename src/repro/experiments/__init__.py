"""Paper experiments: the calibrated scenario, the :class:`Pipeline`
that runs the paper's sequence over it, and one module per
table/figure of the evaluation section."""

from .scenario import (
    Scenario,
    ScenarioConfig,
    apply_differential_story,
    build_scenario,
)
from .runner import Pipeline
from . import table1, fig2, fig3, fig4, fig5, fig6, fig7, fig8

__all__ = [
    "Scenario", "ScenarioConfig", "build_scenario",
    "apply_differential_story",
    "Pipeline",
    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
]
