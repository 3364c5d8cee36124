"""Each engine runs on the records its cell's config carries.

``ExperimentSession`` hands ``config.cassandra`` / ``config.hbase``,
``config.storage`` and ``config.tail`` to the engine as they are; the
engine's nodes, coordinators and drivers read their knobs from those
objects.  Every value below is off its default, so a knob dropped or
copied wrong on the way shows.
"""

from dataclasses import replace

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraConfig
from repro.cluster.topology import TailDefenseConfig
from repro.core.config import default_stress_config
from repro.core.experiment import ExperimentSession
from repro.hbase.deployment import HBaseConfig
from repro.storage.lsm import StorageSpec

pytestmark = pytest.mark.hashseed

TAIL = TailDefenseConfig(deadline_s=0.75, hedge="p90", handler_slots=3,
                         max_handler_queue=7, max_inflight=11)
STORAGE = StorageSpec(memtable_flush_bytes=48 * 1024, block_bytes=2048,
                      block_cache_bytes=96 * 1024)


def _session(db, **engine):
    config = replace(default_stress_config(db, replication=2),
                     record_count=100, n_nodes=6, storage=STORAGE,
                     tail=TAIL, **engine)
    return config, ExperimentSession(config)


def test_cassandra_nodes_read_the_cells_records():
    config, session = _session("cassandra", cassandra=CassandraConfig(
        replication=2, read_cl=ConsistencyLevel.QUORUM,
        write_cl=ConsistencyLevel.ALL, read_repair_chance=0.25,
        blocking_read_repair=False, hint_replay_interval_s=1.5))
    cassandra = session.cassandra
    assert cassandra.config is config.cassandra
    assert cassandra.storage is config.storage
    assert cassandra.tail is config.tail
    assert cassandra.placement.replication == 2
    assert len(cassandra.nodes) == 5
    for node in cassandra.nodes.values():
        assert node.config is config.cassandra
        assert node.tree.spec is config.storage
        assert node.hints.replay_interval_s == 1.5
        pool = node.replica_pool
        assert (pool.capacity, pool.max_queue) == (3, 7)
        coordinator = node.coordinator
        assert coordinator.max_inflight == 11
        assert coordinator.hedge.spec == "p90"
    driver = session.cassandra_session
    assert (driver.read_cl, driver.write_cl) == (ConsistencyLevel.QUORUM,
                                                 ConsistencyLevel.ALL)
    assert driver.deadline_s == 0.75


def test_hbase_servers_read_the_cells_records():
    config, session = _session("hbase", hbase=HBaseConfig(
        replication=2, regions_per_server=3, wal_sync=True))
    hbase = session.hbase
    assert hbase.config is config.hbase
    assert hbase.tail is config.tail
    assert len(hbase.regions) == 5 * 3
    assert all(region.tree.spec is config.storage
               for region in hbase.regions)
    for server in hbase.regionservers.values():
        assert (server.handler_pool.capacity,
                server.handler_pool.max_queue) == (3, 7)
        assert server.wal.sync is True
        assert server.dfs.replication == 2
    driver = session.binding.client
    assert driver.hedge.spec == "p90"
    assert driver.deadline_s == 0.75
