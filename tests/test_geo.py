"""Tests for the geo-distributed extension (paper §6 future work)."""

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cassandra.multidc import NetworkTopologyStrategy, SimpleStrategy
from repro.cassandra.partitioner import TokenRing
from repro.cluster.config import FaultSpec, GeoConfig
from repro.cluster.failure import FailureInjector
from repro.cluster.geo import GeoCluster
from repro.cluster.topology import TailDefenseConfig
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec

import random


def two_datacenters():
    """eu-west and us-west, two servers and one client each."""
    return GeoConfig(datacenters=(("eu-west", 2), ("us-west", 2)),
                     replication_per_dc=())


def build_geo(seed=42):
    env = Environment()
    rngs = RngRegistry(seed)
    geo = GeoCluster(env, GeoConfig(
        datacenters=(("eu-west", 3), ("us-west", 3), ("ap-southeast", 3)),
        replication_per_dc=(("eu-west", 2), ("us-west", 2),
                            ("ap-southeast", 2))), rngs)
    cassandra = CassandraCluster(
        geo, CassandraConfig(replication=3),
        StorageSpec(memtable_flush_bytes=64 * 1024, block_bytes=4096,
                    block_cache_bytes=512 * 1024),
        TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node)
    return env, geo, cassandra, session


def drive(env, generator):
    return env.run(until=env.process(generator))


def _cut_off(geo, datacenter):
    """Kill every server of ``datacenter``."""
    for node_id in geo.servers_in(datacenter):
        geo.kill(node_id)


class TestGeoCluster:
    def test_node_layout(self):
        env = Environment()
        geo = GeoCluster(env, GeoConfig(
            datacenters=(("eu-west", 2), ("us-west", 3)),
            replication_per_dc=()), RngRegistry(1))
        assert len(geo.nodes) == 7  # 5 servers + one client per DC
        assert geo.datacenter_of(0) == "eu-west"
        assert geo.datacenter_of(4) == "us-west"
        assert (geo.server_ids, geo.client_ids) == ([0, 1, 2, 3, 4], [5, 6])
        assert geo.datacenter_of(5) == "eu-west"  # the clients
        assert geo.datacenter_of(6) == "us-west"
        assert geo.servers_in("us-west") == [2, 3, 4]

    def test_cross_dc_latency_dominates(self):
        env = Environment()
        geo = GeoCluster(env, two_datacenters(), RngRegistry(2))

        def echo(payload):
            return payload
            yield  # pragma: no cover

        geo.node(1).register("echo", echo)   # eu-west
        geo.node(2).register("echo", echo)   # us-west

        def probe(target):
            def gen():
                start = env.now
                yield from geo.call(geo.node(0), geo.node(target), "echo")
                return env.now - start
            return drive(env, gen())

        local = probe(1)
        remote = probe(2)
        assert remote > local * 50  # WAN RTT >> in-rack RTT
        assert remote > 0.1  # ~2 x 75 ms one-way

    def test_partition_and_heal(self):
        """A ``dc_partition`` fault takes its datacenter's servers down
        for its window and brings them back."""
        env = Environment()
        geo = GeoCluster(env, two_datacenters(), RngRegistry(3))
        FailureInjector(geo).inject([FaultSpec(
            kind="dc_partition", datacenter="us-west", at_s=1.0,
            duration_s=2.0)])
        env.run(until=2.0)
        assert [n.node_id for n in geo.nodes if not n.alive] == [2, 3]
        env.run(until=4.0)
        assert all(n.alive for n in geo.nodes)


class TestNetworkTopologyStrategy:
    def make_ring(self, n=9):
        return TokenRing(list(range(n)), vnodes=8, rng=random.Random(5))

    def test_per_dc_counts_respected(self):
        ring = self.make_ring()
        dcs = {i: ("dc1", "dc2", "dc3")[i % 3] for i in range(9)}
        strategy = NetworkTopologyStrategy(ring, dcs,
                                           {"dc1": 2, "dc2": 1, "dc3": 2})
        for i in range(100):
            replicas = strategy.replicas_for_key(key_for_index(i))
            by_dc = {}
            for r in replicas:
                by_dc[dcs[r]] = by_dc.get(dcs[r], 0) + 1
            assert by_dc == {"dc1": 2, "dc2": 1, "dc3": 2}

    def test_unknown_dc_rejected(self):
        ring = self.make_ring(4)
        dcs = {i: "dc1" for i in range(4)}
        with pytest.raises(ValueError):
            NetworkTopologyStrategy(ring, dcs, {"nowhere": 1})

    def test_overcommitted_dc_rejected(self):
        ring = self.make_ring(4)
        dcs = {i: "dc1" for i in range(4)}
        with pytest.raises(ValueError):
            NetworkTopologyStrategy(ring, dcs, {"dc1": 5})

    def test_simple_strategy_matches_ring(self):
        ring = self.make_ring()
        strategy = SimpleStrategy(ring, 3)
        key = key_for_index(1)
        assert strategy.replicas_for_key(key) == \
            ring.replicas_for_key(key, 3)


class TestGeoCassandra:
    def test_placement_spans_datacenters(self):
        _, geo, cassandra, _ = build_geo()
        for i in range(50):
            replicas = cassandra.replicas_of(key_for_index(i))
            dcs = {geo.datacenter_of(r) for r in replicas}
            assert dcs == {"eu-west", "us-west", "ap-southeast"}
            assert len(replicas) == 6

    def test_local_quorum_read_is_fast(self):
        env, _, _, session = build_geo()

        def scenario():
            key = key_for_index(3)
            yield from session.insert(key, "v", 200,
                                      cl=ConsistencyLevel.LOCAL_QUORUM)
            yield env.timeout(2)
            start = env.now
            yield from session.read(key, 200,
                                    cl=ConsistencyLevel.LOCAL_QUORUM)
            local_read = env.now - start
            start = env.now
            yield from session.read(key, 200, cl=ConsistencyLevel.ALL)
            global_read = env.now - start
            return local_read, global_read

        local_read, global_read = drive(env, scenario())
        # ALL waits for Singapore; LOCAL_QUORUM never leaves the DC.
        assert global_read > 0.08
        assert local_read < global_read / 5

    def test_local_quorum_write_is_fast(self):
        env, _, _, session = build_geo()

        def scenario():
            key = key_for_index(9)
            start = env.now
            yield from session.insert(key, "v", 200,
                                      cl=ConsistencyLevel.LOCAL_QUORUM)
            local_write = env.now - start
            start = env.now
            yield from session.insert(key, "v2", 200,
                                      cl=ConsistencyLevel.ALL)
            global_write = env.now - start
            return local_write, global_write

        local_write, global_write = drive(env, scenario())
        assert global_write > 0.08
        assert local_write < global_write / 5

    def test_remote_dc_converges_eventually(self):
        env, geo, cassandra, session = build_geo()

        def scenario():
            key = key_for_index(4)
            yield from session.insert(key, "geo-value", 200,
                                      cl=ConsistencyLevel.LOCAL_ONE)
            yield env.timeout(2)  # one-way WAN + settle
            remote = [r for r in cassandra.replicas_of(key)
                      if geo.datacenter_of(r) == "ap-southeast"]
            return [cassandra.nodes[r].newest_timestamp(key) is not None
                    for r in remote]

        assert all(drive(env, scenario()))

    def test_local_quorum_survives_remote_partition(self):
        env, geo, _, session = build_geo()

        def scenario():
            _cut_off(geo, "ap-southeast")
            key = key_for_index(6)
            yield from session.insert(key, "still-works", 200,
                                      cl=ConsistencyLevel.LOCAL_QUORUM)
            result = yield from session.read(
                key, 200, cl=ConsistencyLevel.LOCAL_QUORUM)
            return result

        assert drive(env, scenario())[0] == "still-works"

    def test_all_fails_during_remote_partition(self):
        from repro.cassandra.consistency import UnavailableError
        env, geo, _, session = build_geo()

        def scenario():
            _cut_off(geo, "ap-southeast")
            try:
                yield from session.insert(key_for_index(6), "x", 200,
                                          cl=ConsistencyLevel.ALL)
            except UnavailableError:
                return "unavailable"

        assert drive(env, scenario()) == "unavailable"
