"""Integration: energy metering attached to experiment cells."""

from dataclasses import replace

from repro.core.config import default_stress_config
from repro.core.experiment import ExperimentSession, summarize_run


def test_run_cell_reports_energy_and_cost():
    config = default_stress_config("cassandra", "read_mostly")
    config = replace(config, record_count=1200, operation_count=300,
                     n_nodes=5, n_threads=6, settle_s=0.5)
    session = ExperimentSession(config)
    session.load()
    result = session.run_cell()
    energy, cost = result.reports["energy"], result.reports["cost"]
    assert energy["total_j"] > 0
    assert energy["idle_j"] > 0
    assert result.reports["joules_per_op"] == (
        energy["total_j"] / result.operations)
    # The same result is priced: energy dollars plus instance-hours.
    assert cost["total_usd"] > 0
    assert result.reports["usd_per_mops"] == (
        cost["total_usd"] / (result.operations / 1e6))
    # And the serialized summary carries the whole story.
    summary = summarize_run(result)
    for key in ("energy", "cost", "joules_per_op", "usd_per_mops"):
        assert summary[key] == result.reports[key]


def test_throttled_cell_burns_more_energy_per_op():
    """Idle power dominates at low utilization — the BigDataBench-style
    energy metric penalizes underused clusters per operation."""
    def run(target):
        config = default_stress_config("hbase", "read_mostly",
                                       target_throughput=target)
        config = replace(config, record_count=1200, operation_count=400,
                         n_nodes=5, n_threads=8, settle_s=0.5)
        session = ExperimentSession(config)
        session.load()
        result = session.run_cell()
        return result.reports["joules_per_op"]

    slow = run(200.0)
    fast = run(None)
    assert slow > fast * 2
