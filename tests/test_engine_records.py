"""Each engine runs on the records its cell's config carries.

``ExperimentSession`` hands ``config.engine``,
``config.storage`` and ``config.tail`` to the engine as they are; the
engine's nodes, coordinators and drivers read their knobs from those
objects.  Every value below is off its default, so a knob dropped or
copied wrong on the way shows.  A geo cell's ``config.geo`` is its
cluster's layout record as it is, and every cluster names its own
servers and clients.
"""

from dataclasses import replace

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.config import GeoConfig
from repro.cluster.geo import GeoCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.core.config import default_stress_config
from repro.core.experiment import ExperimentSession
from repro.core.sweep import CAMPAIGNS, campaign_cells
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec
from repro.ycsb import db

pytestmark = pytest.mark.hashseed

TAIL = TailDefenseConfig(deadline_s=0.75, hedge="p90", handler_slots=3,
                         max_handler_queue=7, max_inflight=11)
STORAGE = StorageSpec(memtable_flush_bytes=48 * 1024, block_bytes=2048,
                      block_cache_bytes=96 * 1024)


def _session(engine):
    config = replace(default_stress_config(engine.db, replication=2),
                     record_count=100, n_nodes=6, storage=STORAGE,
                     tail=TAIL, engine=engine)
    return config, ExperimentSession(config)


def test_cassandra_nodes_read_the_cells_records():
    config, session = _session(CassandraConfig(
        replication=2, read_cl=ConsistencyLevel.QUORUM,
        write_cl=ConsistencyLevel.ALL, read_repair_chance=0.25,
        blocking_read_repair=False, hint_replay_interval_s=1.5))
    cassandra = session.deployment
    assert cassandra.config is config.engine
    assert cassandra.storage is config.storage
    assert cassandra.tail is config.tail
    assert cassandra.placement.replication == 2
    assert len(cassandra.nodes) == 5
    for node in cassandra.nodes.values():
        assert node.config is config.engine
        assert node.tree.spec is config.storage
        assert node.hints.replay_interval_s == 1.5
        pool = node.replica_pool
        assert (pool.capacity, pool.max_queue) == (3, 7)
        coordinator = node.coordinator
        assert coordinator.max_inflight == 11
        assert coordinator.hedge.spec == "p90"
    driver = session.client
    assert (driver.read_cl, driver.write_cl) == (ConsistencyLevel.QUORUM,
                                                 ConsistencyLevel.ALL)
    assert driver.deadline_s == 0.75


def test_hbase_servers_read_the_cells_records():
    config, session = _session(HBaseConfig(
        replication=2, regions_per_server=3, wal_sync=True))
    hbase = session.deployment
    assert hbase.config is config.engine
    assert hbase.tail is config.tail
    assert len(hbase.regions) == 5 * 3
    assert all(region.tree.spec is config.storage
               for region in hbase.regions)
    for server in hbase.regionservers.values():
        assert (server.handler_pool.capacity,
                server.handler_pool.max_queue) == (3, 7)
        assert server.wal.sync is True
        assert server.dfs.replication == 2
    driver = session.client
    assert driver.hedge.spec == "p90"
    assert driver.deadline_s == 0.75


# -- one engine, one driver --------------------------------------------------

@pytest.mark.parametrize("engine", [CassandraConfig(replication=2),
                                    HBaseConfig(replication=2)],
                         ids=["cassandra", "hbase"])
def test_a_session_drives_its_engine_through_the_driver_itself(engine):
    """The session deploys the one engine its cell carries, and the YCSB
    verbs a run calls are the driver's own methods: no adapter sits
    between a workload thread and the driver."""
    _, session = _session(engine)
    deployment, driver = {
        "cassandra": (CassandraCluster, CassandraSession),
        "hbase": (HBaseCluster, HBaseClient)}[engine.db]
    assert type(session.deployment) is deployment
    assert type(session.client) is driver
    assert session.client.client_node \
        is session.cluster.node(session.cluster.client_ids[0])
    for verb in ("write", "read", "scan"):
        assert getattr(session.client, verb).__func__ \
            is getattr(driver, verb)
    for gone in ("hbase", "cassandra", "binding", "cassandra_session"):
        assert not hasattr(session, gone), gone
    assert db.__all__ == ["DbBinding"]


# -- the cluster's layout -----------------------------------------------------

def test_a_geo_session_runs_on_the_cells_geo_record():
    config = campaign_cells("geo", scale=CAMPAIGNS["geo"].quick,
                            modes=("LOCAL_QUORUM",),
                            scenarios=("healthy",))[0].config
    session = ExperimentSession(config)
    cluster = session.cluster
    assert cluster.geo is config.geo
    assert [driver.client_node for driver in session._clients.values()] \
        == [cluster.node(node_id) for node_id in cluster.client_ids]
    assert list(session._clients) == [dc for dc, _ in config.geo.datacenters]
    assert session.deployment.placement.replication_per_dc \
        == dict(config.geo.replication_per_dc)


def test_a_rack_names_its_servers_and_its_client():
    cluster = Cluster(Environment(), ClusterSpec(n_nodes=5), RngRegistry(1))
    assert cluster.server_ids == [0, 1, 2, 3]
    assert cluster.client_ids == [4]
    assert cluster.geo is None


def test_a_one_node_rack_is_its_client():
    cluster = Cluster(Environment(), ClusterSpec(n_nodes=1), RngRegistry(1))
    assert (cluster.server_ids, cluster.client_ids) == ([], [0])


def test_a_geo_layout_comes_out_in_datacenter_order():
    geo = GeoConfig(datacenters=(("us-west", 1), ("eu-west", 2)),
                    replication_per_dc=())
    cluster = GeoCluster(Environment(), geo, RngRegistry(1))
    assert cluster.geo is geo
    assert cluster.server_ids == [0, 1, 2]
    assert cluster.client_ids == [3, 4]
    assert cluster.node_datacenter == {0: "us-west", 1: "eu-west",
                                       2: "eu-west", 3: "us-west",
                                       4: "eu-west"}
    assert [node.node_id for node in cluster.nodes] == [0, 1, 2, 3, 4]
