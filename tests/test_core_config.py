"""Unit tests for experiment configuration."""

import dataclasses
import typing

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.config import FaultSpec
from repro.core.config import (ArrivalConfig, CassandraConfig,
                               ElasticityConfig, ExperimentConfig, GeoConfig,
                               HBaseConfig, default_micro_config,
                               default_stress_config, engine_config)
from repro.core.experiment import ExperimentSession
from repro.core.sweep import Scale
from repro.storage.lsm import StorageSpec
from repro.ycsb.workload import STRESS_WORKLOADS


def _leaves(cls, prefix=""):
    """Dotted paths of every settable value under dataclass ``cls``:
    nested (``Optional``, or one of several records) dataclass fields
    are walked, each path once; anything else — a number, a string, a
    tuple of fault or scale specs — is a leaf."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kinds = [a for a in typing.get_args(hints[field.name])
                 if a is not type(None)] or [hints[field.name]]
        if all(dataclasses.is_dataclass(kind) for kind in kinds):
            yield from dict.fromkeys(
                path for kind in kinds
                for path in _leaves(kind, f"{prefix}{field.name}."))
        else:
            yield prefix + field.name


def test_settable_value_count():
    """A new setting is a deliberate edit of this number: one a campaign
    never varies is a constant, not a field."""
    leaves = list(_leaves(ExperimentConfig))
    assert len(dataclasses.fields(ExperimentConfig)) == 18
    assert len(leaves) == 68, "\n".join(leaves)


def test_scale_value_count():
    """A campaign scale carries what ``--quick`` changes (and the seed);
    the rest are constants beside the builder that reads them."""
    leaves = list(_leaves(Scale))
    assert len(dataclasses.fields(Scale)) == 15
    assert len(leaves) == 48, "\n".join(leaves)


_WORKLOAD = STRESS_WORKLOADS["read_mostly"]


def _cell(**overrides):
    return ExperimentConfig(**{"engine": HBaseConfig(), "workload": _WORKLOAD,
                               "record_count": 10, "operation_count": 10,
                               **overrides})


@pytest.mark.parametrize("build, names", [
    (lambda: StorageSpec(memtable_flush_bytes=0), "memtable_flush_bytes=0"),
    (lambda: StorageSpec(block_bytes=0), "block_bytes=0"),
    (lambda: StorageSpec(block_cache_bytes=-1), "block_cache_bytes=-1"),
    (lambda: StorageSpec(compaction_min_batch=1), "compaction_min_batch=1"),
    (lambda: StorageSpec(compaction_max_batch=2), "compaction_max_batch=2"),
    (lambda: _cell(record_count=0), "record_count=0"),
    (lambda: _cell(operation_count=0), "operation_count=0"),
    (lambda: _cell(n_nodes=1), "n_nodes=1"),
    (lambda: ArrivalConfig(rate=0.0), "rate=0.0"),
    (lambda: ArrivalConfig(max_arrivals=0), "max_arrivals=0"),
    (lambda: ArrivalConfig(process="bursty"), "flash_crowd"),
    (lambda: _cell(n_threads=0), r"n_threads=0: must be >= 1"),
    (lambda: _cell(settle_s=-1.0), r"settle_s=-1.0: must be >= 0"),
    (lambda: _cell(target_throughput=0.0),
     r"target_throughput=0.0: must be None \(full speed\) or > 0"),
    (lambda: GeoConfig(datacenters=(("eu-west", 3), ("mars", 3)),
                       replication_per_dc=()),
     r"'mars' has no WAN latencies; choose from \['ap-southeast', "
     r"'eu-west', 'us-west'\]"),
    (lambda: GeoConfig(replication_per_dc=(("eu-west", -1), ("us-west", 3),
                                           ("ap-southeast", 3))),
     r"GeoConfig.replication_per_dc: 'eu-west' has replication -1"),
    (lambda: GeoConfig(replication_per_dc=(("eu-west", 3), ("us-west", 3),
                                           ("eu-west", 2))),
     r"GeoConfig.replication_per_dc: 'eu-west' is listed twice"),
    (lambda: GeoConfig(datacenters=(("eu-west", 3), ("us-west", 0)),
                       replication_per_dc=()),
     r"GeoConfig.datacenters: 'us-west' has 0 servers"),
    (lambda: ExperimentSession(_cell()).run_cell(target_throughput=0.0),
     r"run_cell.target_throughput=0.0: must be None \(full speed\) or > 0"),
    (lambda: FaultSpec(kind="crash", at_s=-2.0),
     r"FaultSpec.at_s=-2.0: must be >= 0"),
    (lambda: FaultSpec(kind="crash", duration_s=-1.0),
     r"FaultSpec.duration_s=-1.0: must be None \(never cleared\) or > 0"),
    (lambda: FaultSpec(kind="flap", duration_s=0.0),
     r"FaultSpec.duration_s=0.0: must be None \(never cleared\) or > 0"),
    (lambda: ElasticityConfig(events=(1.0, -0.5)),
     r"ElasticityConfig.events: at_s=-0.5 must be >= 0"),
    (lambda: ElasticityConfig(cooldown_s=-1.0),
     r"ElasticityConfig.cooldown_s=-1.0: must be >= 0"),
    (lambda: _cell(n_nodes=2, elasticity=ElasticityConfig()),
     r"n_nodes=2 has 1 servers: an elastic cell keeps 1 spare"),
    (lambda: _cell(engine=CassandraConfig(), n_nodes=16, geo=GeoConfig()),
     r"n_nodes=16 does not match the geo layout's 12 nodes"),
    (lambda: _cell(engine=CassandraConfig(replication=4), n_nodes=4),
     r"replication=4 exceeds the 3 servers"),
    (lambda: _cell(n_nodes=4, elasticity=ElasticityConfig()),
     r"replication=3 exceeds the 2 servers"),
    (lambda: default_micro_config("hbase", replication=16),
     r"replication=16 exceeds the 15 servers"),
], ids=["memtable", "block", "cache", "min_batch", "max_batch", "records",
        "operations", "nodes", "rate", "arrivals", "process", "threads",
        "settle", "target",
        "geo_datacenter", "geo_negative_replication",
        "geo_repeated_replication", "geo_empty_datacenter", "run_target",
        "fault_negative_start", "fault_negative_duration",
        "flap_zero_duration", "scale_negative_instant",
        "scale_negative_cooldown", "elastic_no_server",
        "geo_conflicting_size", "replication_over_servers",
        "replication_over_serving_set", "replication_over_the_rack"])
def test_config_errors_name_the_field_and_value(build, names):
    with pytest.raises(ValueError, match=names):
        build()


class TestExperimentConfig:
    def test_unknown_db_rejected(self):
        with pytest.raises(ValueError, match="unknown db 'mongodb'"):
            engine_config("mongodb")
        with pytest.raises(ValueError, match="must be an HBaseConfig or"):
            _cell(engine="mongodb")

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            _cell(record_count=0)

    def test_geo_cell_takes_its_size_from_the_layout(self):
        geo = GeoConfig()
        config = _cell(engine=CassandraConfig(), geo=geo)
        assert config.n_nodes is None
        # Naming the layout's own size is no conflict; the record is the
        # same cell either way, and a new layout replaces the old one.
        assert dataclasses.replace(config, n_nodes=geo.total_nodes) == config
        smaller = GeoConfig(datacenters=(("eu-west", 1), ("us-west", 1)),
                            replication_per_dc=(("eu-west", 1),
                                                ("us-west", 1)))
        assert dataclasses.replace(config, geo=smaller).geo == smaller

    def test_rack_size_defaults_to_the_papers(self):
        assert _cell().n_nodes == 16

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            _cell(n_nodes=1)

    def test_replication_property_tracks_db(self):
        config = _cell(engine=CassandraConfig(replication=5))
        assert (config.db, config.replication) == ("cassandra", 5)

    def test_with_replication_updates_the_engine(self):
        config = default_stress_config("hbase")
        updated = config.with_replication(6)
        assert updated.engine == HBaseConfig(replication=6)
        assert config.engine.replication == 3  # original untouched


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
        assert config.engine.read_cl is ConsistencyLevel.ONE
        assert config.engine.write_cl is ConsistencyLevel.ONE
