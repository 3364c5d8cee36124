"""Integration: energy metering attached to experiment cells."""

from dataclasses import replace

from repro.energy import EnergyReport
from repro.core.config import default_stress_config
from repro.core.experiment import ExperimentSession, summarize_run
from repro.energy.cost import CostReport


def test_run_cell_reports_energy_and_cost():
    config = default_stress_config("cassandra", "read_mostly")
    config = replace(config, record_count=1200, operation_count=300,
                     n_nodes=5, n_threads=6, settle_s=0.5, load_threads=8)
    session = ExperimentSession(config)
    session.load()
    result = session.run_cell()
    assert isinstance(result.energy, EnergyReport)
    assert result.energy.total_j > 0
    assert result.energy.idle_j > 0
    joules_per_op = result.energy.joules_per_op(result.operations)
    assert joules_per_op > 0
    # The same result is priced: energy dollars plus instance-hours.
    assert isinstance(result.cost, CostReport)
    assert result.cost.total_usd > 0
    assert result.cost.usd_per_mops(result.operations) > 0
    # And the serialized summary carries the whole story.
    summary = summarize_run(result)
    assert summary["energy"]["total_j"] == result.energy.total_j
    assert summary["cost"]["total_usd"] == result.cost.total_usd
    assert summary["joules_per_op"] == joules_per_op
    assert summary["usd_per_mops"] == result.cost.usd_per_mops(
        result.operations)


def test_throttled_cell_burns_more_energy_per_op():
    """Idle power dominates at low utilization — the BigDataBench-style
    energy metric penalizes underused clusters per operation."""
    def run(target):
        config = default_stress_config("hbase", "read_mostly",
                                       target_throughput=target)
        config = replace(config, record_count=1200, operation_count=400,
                         n_nodes=5, n_threads=8, settle_s=0.5,
                         load_threads=8)
        session = ExperimentSession(config)
        session.load()
        result = session.run_cell()
        return result.energy.joules_per_op(result.operations)

    slow = run(200.0)
    fast = run(None)
    assert slow > fast * 2
