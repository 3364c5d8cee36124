"""Integration tests for experiment sessions and sweeps."""

from dataclasses import replace

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.core.config import default_micro_config, default_stress_config
from repro.core.experiment import ExperimentSession, run_experiment
from repro.core.sweep import CAMPAIGNS, run_campaign
from repro.storage.lsm import StorageSpec
from repro.ycsb.workload import STRESS_WORKLOADS


def tiny_micro(db, rf=2, seed=42):
    config = default_micro_config(db, "read", replication=rf, seed=seed)
    return replace(config, record_count=1500, operation_count=300,
                   n_nodes=5, n_threads=4, settle_s=1.0)


def tiny_stress(db, rf=2, seed=42):
    config = default_stress_config(db, "read_update", replication=rf,
                                   seed=seed)
    return replace(config, record_count=1500, operation_count=300,
                   n_nodes=5, n_threads=8, settle_s=1.0,
                   storage=StorageSpec(memtable_flush_bytes=32 * 1024,
                                       block_bytes=4096,
                                       block_cache_bytes=64 * 1024))


class TestRunExperiment:
    @pytest.mark.parametrize("db", ["hbase", "cassandra"])
    def test_end_to_end(self, db):
        result = run_experiment(tiny_micro(db))
        assert result.load.records == 1500
        assert result.run.operations > 0
        assert result.run.throughput > 0
        assert result.run.overall().mean > 0
        assert result.db_stats["rpc_count"] > 0

    def test_deterministic_same_seed(self):
        a = run_experiment(tiny_micro("cassandra", seed=77))
        b = run_experiment(tiny_micro("cassandra", seed=77))
        assert a.run.throughput == pytest.approx(b.run.throughput)
        assert a.run.overall().mean == pytest.approx(b.run.overall().mean)

    def test_different_seeds_differ(self):
        a = run_experiment(tiny_micro("cassandra", seed=1))
        b = run_experiment(tiny_micro("cassandra", seed=2))
        assert a.run.overall().mean != b.run.overall().mean


class TestExperimentSession:
    def test_multiple_cells_share_loaded_data(self):
        session = ExperimentSession(tiny_stress("hbase"))
        session.load()
        first = session.run_cell(workload=STRESS_WORKLOADS["read_mostly"])
        second = session.run_cell(workload=STRESS_WORKLOADS["read_update"])
        assert first.workload == "read_mostly"
        assert second.workload == "read_update"
        # Reads hit loaded data: overwhelming majority found.
        assert first.not_found < first.operations * 0.05

    def test_load_twice_rejected(self):
        session = ExperimentSession(tiny_micro("hbase"))
        session.load()
        with pytest.raises(RuntimeError):
            session.load()

    def test_run_before_load_rejected(self):
        session = ExperimentSession(tiny_micro("hbase"))
        with pytest.raises(RuntimeError):
            session.run_cell()

    def test_cl_override_only_for_cassandra(self):
        session = ExperimentSession(tiny_stress("hbase"))
        session.load()
        with pytest.raises(ValueError):
            session.run_cell(read_cl=ConsistencyLevel.QUORUM)

    def test_cassandra_cl_override_applies(self):
        session = ExperimentSession(tiny_stress("cassandra"))
        session.load()
        session.run_cell(read_cl=ConsistencyLevel.QUORUM,
                         write_cl=ConsistencyLevel.QUORUM)
        assert session.cassandra_session.read_cl is ConsistencyLevel.QUORUM

    def test_target_override(self):
        session = ExperimentSession(tiny_stress("hbase"))
        session.load()
        result = session.run_cell(target_throughput=200.0)
        assert result.throughput <= 260

    def test_db_stats_shape(self):
        session = ExperimentSession(tiny_stress("cassandra"))
        session.load()
        session.run_cell()
        stats = session.db_stats()
        assert "cassandra" in stats
        assert stats["cassandra"]["writes"] > 0
        assert "cache_hit_rate" in stats


class TestSweepPlumbing:
    def test_micro_sweep_structure(self):
        scale = replace(CAMPAIGNS["fig1"].full, record_count=1200,
                        operation_count=250, n_threads=4, n_nodes=5, seed=3)
        sweep = run_campaign("fig1", "hbase", scale, rfs=[1, 2])
        assert set(sweep) == {1, 2}
        for per_op in sweep.values():
            assert set(per_op) == {"update", "read", "insert", "scan"}
            for cell in per_op.values():
                assert cell["mean_ms"] > 0
                assert cell["ops"] > 0
