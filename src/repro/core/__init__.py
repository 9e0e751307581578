"""CLASP core: the paper's primary contribution.

Server selection (topology-based and differential-based), measurement
VM orchestration and hourly scheduling, the longitudinal campaign
runner and time-series store, and the congestion detection / analysis
layer that produces every figure and table in the paper.
"""

from .records import MeasurementRecord, ServerMeta
from .tsdb import Table, TimeSeriesDB
from .orchestrator import DeploymentPlan, Orchestrator
from .scheduler import HourlySchedule, TestSlot
from .campaign import CampaignDataset, CampaignRunner
from .congestion import (
    CongestionEvent,
    CongestionReport,
    hourly_variability,
    choose_threshold_elbow,
    midnight_day_index,
    threshold_sweep,
)
from .streaming import (
    StreamingCongestionDetector,
    StreamingDetectorObserver,
    stream_dataset,
)
from .analysis import (
    TierComparison,
    congestion_probability,
    congested_server_summary,
    performance_scatter,
    tier_comparison,
)
from .selection.topology_based import TopologySelection, TopologySelector
from .selection.differential import (
    DifferentialSelection,
    DifferentialSelector,
    LatencyClass,
)
from .clasp import Clasp
from .detectors import (
    AutocorrelationDetector,
    HmmDetector,
    VariabilityDetector,
)
from .validation import AccuracyReport, bdrmap_accuracy, congestion_oracle
from .export import export_dataset, load_dataset

__all__ = [
    "MeasurementRecord", "ServerMeta",
    "Table", "TimeSeriesDB",
    "DeploymentPlan", "Orchestrator",
    "HourlySchedule", "TestSlot",
    "CampaignDataset", "CampaignRunner",
    "CongestionEvent", "CongestionReport",
    "hourly_variability",
    "choose_threshold_elbow", "midnight_day_index", "threshold_sweep",
    "StreamingCongestionDetector", "StreamingDetectorObserver",
    "stream_dataset",
    "TierComparison", "congestion_probability",
    "congested_server_summary", "performance_scatter", "tier_comparison",
    "TopologySelection", "TopologySelector",
    "DifferentialSelection", "DifferentialSelector", "LatencyClass",
    "Clasp",
    "AutocorrelationDetector", "HmmDetector", "VariabilityDetector",
    "AccuracyReport", "bdrmap_accuracy", "congestion_oracle",
    "export_dataset", "load_dataset",
]
