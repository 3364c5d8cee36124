"""Unit tests for the HDFS substrate: namenode, datanodes, pipeline, client."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.pipeline import pipeline_write
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

pytestmark = pytest.mark.hashseed


@pytest.fixture
def hdfs():
    env = Environment()
    rngs = RngRegistry(9)
    cluster = Cluster(env, ClusterSpec(n_nodes=5), rngs)
    datanodes = {i: DataNode(cluster.node(i)) for i in range(4)}
    namenode = NameNode(cluster.node(4), list(datanodes), rngs.stream("nn"))
    return env, cluster, namenode, datanodes


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestNameNode:
    def test_first_replica_on_writer(self, hdfs):
        _, _, namenode, _ = hdfs
        targets = namenode.choose_targets(3, writer_id=2)
        assert targets[0] == 2
        assert len(targets) == 3 and len(set(targets)) == 3

    def test_replication_capped_at_datanode_count(self, hdfs):
        _, _, namenode, _ = hdfs
        targets = namenode.choose_targets(10, writer_id=0)
        assert len(targets) == 4

    def test_non_datanode_writer_gets_random_targets(self, hdfs):
        _, _, namenode, _ = hdfs
        targets = namenode.choose_targets(2, writer_id=99)
        assert len(targets) == 2 and 99 not in targets

    def test_create_registers_file(self, hdfs):
        _, _, namenode, _ = hdfs
        file = namenode.create_file("wal", 3, 1, 0)
        assert namenode.namespace[file.path] is file
        assert file.replication == 3


class TestPipeline:
    def test_ack_after_all_replicas(self, hdfs):
        env, cluster, _, datanodes = hdfs

        def one(rf):
            targets = [datanodes[i] for i in range(rf)]
            start = env.now
            yield from pipeline_write(cluster, cluster.node(4), targets, 500)
            return env.now - start

        t1 = drive(env, one(1))
        t3 = drive(env, one(3))
        assert t3 > t1  # more hops, more latency

    def test_bytes_land_in_page_cache_not_disk(self, hdfs):
        env, cluster, _, datanodes = hdfs

        def scenario():
            yield from pipeline_write(cluster, cluster.node(4),
                                      [datanodes[0], datanodes[1]], 700)

        drive(env, scenario())
        assert cluster.node(0).disk.dirty_bytes == 700
        assert cluster.node(0).disk.busy_time == 0.0

    def test_sync_mode_writes_to_disk(self, hdfs):
        env, cluster, _, datanodes = hdfs

        def scenario():
            yield from pipeline_write(cluster, cluster.node(4),
                                      [datanodes[0]], 700, sync=True)

        drive(env, scenario())
        assert cluster.node(0).disk.bytes_written == 700
        assert cluster.node(0).disk.busy_time > 0

    def test_large_transfer_chunked(self, hdfs):
        env, cluster, _, datanodes = hdfs

        def scenario():
            yield from pipeline_write(cluster, cluster.node(4),
                                      [datanodes[0]], 1_000_000)

        drive(env, scenario())
        assert cluster.node(0).disk.dirty_bytes == 1_000_000
        # 1 MB travels as ~64 KiB packet-sized chunks so foreground reads
        # can interleave with bulk replication traffic.
        assert datanodes[0].blocks_received == 16

    def test_empty_pipeline_rejected(self, hdfs):
        env, cluster, _, _ = hdfs
        with pytest.raises(ValueError):
            drive(env, pipeline_write(cluster, cluster.node(4), [], 10))


class TestDfsClient:
    def test_create_append_read_roundtrip(self, hdfs):
        env, cluster, namenode, datanodes = hdfs
        dfs = DfsClient(cluster, namenode, datanodes, cluster.node(0), 3,
                        RngRegistry(1).stream("dfs"))

        def scenario():
            file = yield from dfs.create("data")
            yield from dfs.append(file, 5000)
            yield from dfs.read(file, 4096)
            return file

        file = drive(env, scenario())
        assert file.size_bytes == 5000
        assert file.locations[0] == 0  # writer-local first replica

    def test_local_read_short_circuits(self, hdfs):
        env, cluster, namenode, datanodes = hdfs
        dfs = DfsClient(cluster, namenode, datanodes, cluster.node(0), 2,
                        RngRegistry(1).stream("dfs"))

        def scenario():
            file = yield from dfs.create("data")
            yield from dfs.append(file, 1000)
            before = cluster.rpc_count
            yield from dfs.read(file, 1000)
            return cluster.rpc_count - before

        assert drive(env, scenario()) == 0  # no RPC: local disk

    def test_remote_read_uses_rpc(self, hdfs):
        env, cluster, namenode, datanodes = hdfs
        # Client on node 3; force replicas elsewhere by making 3 "full":
        dfs_writer = DfsClient(cluster, namenode, datanodes, cluster.node(0),
                               1, RngRegistry(1).stream("dfs"))
        dfs_reader = DfsClient(cluster, namenode, datanodes, cluster.node(3),
                               1, RngRegistry(1).stream("dfs2"))

        def scenario():
            file = yield from dfs_writer.create("data")
            yield from dfs_writer.append(file, 1000)
            assert not file.held_by(3)
            before = cluster.rpc_count
            yield from dfs_reader.read(file, 1000)
            return cluster.rpc_count - before

        assert drive(env, scenario()) >= 1

    def test_append_to_all_dead_replicas_fails(self, hdfs):
        env, cluster, namenode, datanodes = hdfs
        dfs = DfsClient(cluster, namenode, datanodes, cluster.node(0), 1,
                        RngRegistry(1).stream("dfs"))

        def scenario():
            file = yield from dfs.create("data")
            cluster.kill(file.locations[0])
            try:
                yield from dfs.append(file, 100)
            except RuntimeError:
                return "failed"

        assert drive(env, scenario()) == "failed"
