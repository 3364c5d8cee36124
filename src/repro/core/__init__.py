"""Experiment orchestration: the repository's public face.

Compose a cluster, a database, and a YCSB workload into one experiment
cell (:mod:`repro.core.experiment`), run any campaign of the table
(:mod:`repro.core.sweep`), and render paper-style tables
(:mod:`repro.core.report`).
"""

from repro.core.config import (
    AdaptiveConfig,
    CassandraConfig,
    ExperimentConfig,
    HBaseConfig,
    default_micro_config,
    default_stress_config,
)
from repro.core.experiment import (
    ExperimentResult,
    ExperimentSession,
    run_experiment,
)
from repro.core.failover import StalenessProbe, build_failover_report
from repro.core.report import (
    render_adaptive_timeline,
    render_check_report,
    render_failover_timeline,
    render_series,
    render_table,
)
from repro.core.sla import Sla, SlaReport, evaluate_sla, max_throughput_under_sla
from repro.core.sweep import (
    ADAPTIVE_POLICIES,
    CAMPAIGNS,
    CHECK_CL_MODES,
    CONSISTENCY_MODES,
    FAILOVER_CL_MODES,
    Campaign,
    Scale,
    campaign_cells,
    check_sweep,
    render_campaign,
    run_campaign,
)

__all__ = [
    "ADAPTIVE_POLICIES",
    "CAMPAIGNS",
    "CHECK_CL_MODES",
    "CONSISTENCY_MODES",
    "AdaptiveConfig",
    "Campaign",
    "CassandraConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentSession",
    "FAILOVER_CL_MODES",
    "HBaseConfig",
    "Scale",
    "Sla",
    "SlaReport",
    "StalenessProbe",
    "build_failover_report",
    "campaign_cells",
    "check_sweep",
    "default_micro_config",
    "default_stress_config",
    "evaluate_sla",
    "max_throughput_under_sla",
    "render_adaptive_timeline",
    "render_campaign",
    "render_check_report",
    "render_failover_timeline",
    "render_series",
    "render_table",
    "run_campaign",
    "run_experiment",
]
