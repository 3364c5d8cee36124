"""Unit tests for experiment configuration."""

import dataclasses
import typing

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.core.config import (
    ArrivalConfig,
    CassandraConfig,
    ExperimentConfig,
    default_micro_config,
    default_stress_config,
)
from repro.storage.lsm import StorageSpec
from repro.ycsb.workload import STRESS_WORKLOADS


def _leaves(cls, prefix=""):
    """Dotted paths of every settable value under dataclass ``cls``:
    nested (and ``Optional``) dataclass fields are walked, anything else
    — a number, a string, a tuple of fault or scale specs — is a leaf."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        inner = [a for a in typing.get_args(kind) if a is not type(None)]
        if typing.get_origin(kind) is typing.Union and len(inner) == 1:
            kind = inner[0]
        if dataclasses.is_dataclass(kind):
            yield from _leaves(kind, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name


def test_settable_value_count():
    """A new setting is a deliberate edit of this number: one a campaign
    never varies is a constant, not a field."""
    leaves = list(_leaves(ExperimentConfig))
    assert len(leaves) == 94, "\n".join(leaves)


_WORKLOAD = STRESS_WORKLOADS["read_mostly"]


@pytest.mark.parametrize("build, names", [
    (lambda: StorageSpec(memtable_flush_bytes=0), "memtable_flush_bytes=0"),
    (lambda: StorageSpec(block_bytes=0), "block_bytes=0"),
    (lambda: StorageSpec(block_cache_bytes=-1), "block_cache_bytes=-1"),
    (lambda: StorageSpec(compaction_min_batch=1), "compaction_min_batch=1"),
    (lambda: StorageSpec(compaction_max_batch=2), "compaction_max_batch=2"),
    (lambda: ExperimentConfig(db="hbase", workload=_WORKLOAD,
                              record_count=0, operation_count=10),
     "record_count=0"),
    (lambda: ExperimentConfig(db="hbase", workload=_WORKLOAD,
                              record_count=10, operation_count=0),
     "operation_count=0"),
    (lambda: ExperimentConfig(db="hbase", workload=_WORKLOAD,
                              record_count=10, operation_count=10,
                              n_nodes=1), "n_nodes=1"),
    (lambda: ArrivalConfig(rate=0.0), "rate=0.0"),
    (lambda: ArrivalConfig(max_arrivals=0), "max_arrivals=0"),
    (lambda: ArrivalConfig(process="bursty"), "flash_crowd"),
], ids=["memtable", "block", "cache", "min_batch", "max_batch", "records",
        "operations", "nodes", "rate", "arrivals", "process"])
def test_config_errors_name_the_field_and_value(build, names):
    with pytest.raises(ValueError, match=names):
        build()


class TestExperimentConfig:
    def test_unknown_db_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(db="mongodb",
                             workload=STRESS_WORKLOADS["read_mostly"],
                             record_count=10, operation_count=10)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(db="hbase",
                             workload=STRESS_WORKLOADS["read_mostly"],
                             record_count=0, operation_count=10)

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(db="hbase",
                             workload=STRESS_WORKLOADS["read_mostly"],
                             record_count=10, operation_count=10, n_nodes=1)

    def test_replication_property_tracks_db(self):
        config = ExperimentConfig(
            db="cassandra", workload=STRESS_WORKLOADS["read_mostly"],
            record_count=10, operation_count=10,
            cassandra=CassandraConfig(replication=5))
        assert config.replication == 5

    def test_with_replication_updates_both_sides(self):
        config = default_stress_config("hbase")
        updated = config.with_replication(6)
        assert updated.hbase.replication == 6
        assert updated.cassandra.replication == 6
        assert config.hbase.replication == 3  # original untouched


class TestFactories:
    def test_micro_defaults(self):
        config = default_micro_config("hbase", "read", replication=2)
        assert config.db == "hbase"
        assert config.workload.read_proportion == 1.0
        assert config.replication == 2
        assert config.workload.record_bytes < 100  # tiny micro records

    def test_micro_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            default_micro_config("hbase", "delete")

    def test_stress_defaults(self):
        config = default_stress_config("cassandra", "read_latest",
                                       replication=4,
                                       target_throughput=5000.0)
        assert config.workload.name == "read_latest"
        assert config.target_throughput == 5000.0
        assert config.replication == 4
        assert config.workload.record_bytes == 1000

    def test_stress_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            default_stress_config("cassandra", "workload_z")

    def test_default_cls_are_one(self):
        config = default_stress_config("cassandra")
        assert config.cassandra.read_cl is ConsistencyLevel.ONE
        assert config.cassandra.write_cl is ConsistencyLevel.ONE
