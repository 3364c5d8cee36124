"""Unit and integration tests for the HBase engine."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import KEY_DOMAIN, key_for_index, key_for_token, token_of
from repro.cluster.hedging import backoff_delay
from repro.hbase import master as hmaster
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.hbase.region import Region
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


def small_storage():
    return StorageSpec(memtable_flush_bytes=8192, block_bytes=1024,
                       block_cache_bytes=8192)


@pytest.fixture
def hbase():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(13))
    deployment = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=2),
        small_storage(), TailDefenseConfig())
    client = HBaseClient(deployment, deployment.master_node)
    return env, cluster, deployment, client


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestRegion:
    def test_contains(self):
        region = Region(0, 100, 200)
        assert region.contains(100) and region.contains(199)
        assert not region.contains(99) and not region.contains(200)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Region(0, 5, 5)


class TestDeployment:
    def test_presplit_covers_domain(self, hbase):
        _, _, deployment, _ = hbase
        regions = deployment.regions
        assert regions[0].start_token == 0
        assert regions[-1].end_token == KEY_DOMAIN
        for left, right in zip(regions, regions[1:]):
            assert left.end_token == right.start_token

    def test_every_region_assigned(self, hbase):
        _, _, deployment, _ = hbase
        assert set(deployment.master.assignment) == \
            {r.region_id for r in deployment.regions}

    def test_region_lookup_matches_ranges(self, hbase):
        _, _, deployment, _ = hbase
        for i in range(200):
            token = token_of(key_for_index(i))
            region = deployment.region_for_token(token)
            assert region.contains(token)

    def test_assignment_balanced(self, hbase):
        _, _, deployment, _ = hbase
        per_server = {}
        for node_id in deployment.master.assignment.values():
            per_server[node_id] = per_server.get(node_id, 0) + 1
        assert set(per_server.values()) == {2}

    def test_needs_two_nodes(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=1), RngRegistry(1))
        with pytest.raises(ValueError):
            HBaseCluster(
                cluster, HBaseConfig(), StorageSpec(), TailDefenseConfig())


class TestClientOperations:
    def test_put_get_roundtrip(self, hbase):
        env, _, _, client = hbase

        def scenario():
            yield from client.put(key_for_index(1), "value", 100)
            result = yield from client.get(key_for_index(1), 100)
            return result

        value, _ts = drive(env, scenario())
        assert value == "value"

    def test_get_missing_returns_none(self, hbase):
        env, _, _, client = hbase

        def scenario():
            result = yield from client.get(key_for_index(77), 100)
            return result

        assert drive(env, scenario()) is None

    def test_update_overwrites(self, hbase):
        env, _, _, client = hbase

        def scenario():
            yield from client.put(key_for_index(2), "v1", 100)
            yield from client.put(key_for_index(2), "v2", 100)
            result = yield from client.get(key_for_index(2), 100)
            return result

        assert drive(env, scenario())[0] == "v2"

    def test_scan_is_sorted_and_complete(self, hbase):
        env, _, _, client = hbase

        def scenario():
            for i in range(300):
                yield from client.put(key_for_index(i), i, 50)
            rows = yield from client.scan(key_for_index(5), 25, 50)
            return rows

        rows = drive(env, scenario())
        keys = [k for k, *_ in rows]
        assert len(rows) == 25
        assert keys == sorted(keys)
        assert keys[0] == key_for_index(5)

    def test_scan_crosses_region_boundaries(self, hbase):
        env, _, deployment, client = hbase

        def scenario():
            for i in range(400):
                yield from client.put(key_for_index(i), i, 50)
            # Start near the end of the first region.
            first_region = deployment.regions[0]
            start_key = key_for_token(first_region.end_token - 1000)
            rows = yield from client.scan(start_key, 10, 50)
            return rows

        rows = drive(env, scenario())
        assert len(rows) == 10
        tokens = [token_of(k) for k, *_ in rows]
        boundary = deployment.regions[0].end_token
        assert any(t >= boundary for t in tokens)

    def test_strong_consistency_read_your_writes(self, hbase):
        env, _, _, client = hbase

        def scenario():
            failures = []
            for i in range(100):
                yield from client.put(key_for_index(i), f"gen{i}", 50)
                result = yield from client.get(key_for_index(i), 50)
                if result is None or result[0] != f"gen{i}":
                    failures.append(i)
            return failures

        assert drive(env, scenario()) == []


class TestReplicationBehaviour:
    def _write_latency(self, rf):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(29))
        deployment = HBaseCluster(
            cluster, HBaseConfig(replication=rf), small_storage(),
            TailDefenseConfig())
        client = HBaseClient(deployment, deployment.master_node)

        def scenario():
            latencies = []
            for i in range(300):
                start = env.now
                yield from client.put(key_for_index(i), i, 500)
                latencies.append(env.now - start)
            tail = latencies[100:]
            return sum(tail) / len(tail)

        return env.run(until=env.process(scenario()))

    def test_write_latency_grows_only_mildly_with_rf(self):
        lat1 = self._write_latency(1)
        lat5 = self._write_latency(5)
        assert lat5 > lat1  # extra pipeline hops are not free...
        assert lat5 < lat1 + 0.0012  # ...but stay in-memory cheap (F2)

    def _read_latency(self, rf):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(31))
        deployment = HBaseCluster(
            cluster, HBaseConfig(replication=rf), small_storage(),
            TailDefenseConfig())
        client = HBaseClient(deployment, deployment.master_node)

        def scenario():
            for i in range(400):
                yield from client.put(key_for_index(i), i, 200)
            yield env.timeout(10)
            latencies = []
            for i in range(200):
                start = env.now
                yield from client.get(key_for_index(i % 400), 200)
                latencies.append(env.now - start)
            return sum(latencies) / len(latencies)

        return env.run(until=env.process(scenario()))

    def test_read_latency_independent_of_rf(self):
        lat1 = self._read_latency(1)
        lat4 = self._read_latency(4)
        assert lat4 < lat1 * 1.5 and lat1 < lat4 * 1.5  # F1: flat

    def test_wal_pipeline_replicates_to_rf_datanodes(self, hbase):
        env, cluster, deployment, client = hbase

        def scenario():
            for i in range(50):
                yield from client.put(key_for_index(i), i, 400)

        drive(env, scenario())
        dirty_nodes = sum(
            1 for node in cluster.nodes[:-1] if node.disk.dirty_bytes > 0)
        assert dirty_nodes >= 2  # rf=2 WAL replicas spread over servers


class TestRegionMedium:
    """What the engine's storage calls turn into on HDFS."""

    def test_wal_appends_travel_the_pipeline_to_every_replica(self, hbase):
        env, cluster, deployment, _ = hbase
        medium = deployment.regions[0].medium
        server = medium.server

        def scenario():
            yield medium.append_log(200)
            yield medium.append_log(200)

        drive(env, scenario())
        wal_file = server.wal._wal_file
        assert (server.wal.appends, server.wal.batches) == (2, 2)
        assert wal_file.size_bytes == 400
        # One segment, writer-local first replica, RF 2: 400 bytes in
        # exactly those two page caches.
        assert wal_file.path == "wal/rs0/00000001"
        assert wal_file.locations[0] == server.node.node_id
        assert len(set(wal_file.locations)) == 2
        assert {node.node_id: node.disk.dirty_bytes
                for node in cluster.nodes if node.disk.dirty_bytes} \
            == {node_id: 400 for node_id in wal_file.locations}

    def test_write_run_returns_handle_with_local_replica(self, hbase):
        env, _, deployment, _ = hbase
        medium = deployment.regions[1].medium

        def scenario():
            handle = yield from medium.write_run(10_000)
            return handle

        handle = drive(env, scenario())
        assert handle.held_by(medium.server.node.node_id)
        assert handle.size_bytes == 10_000
        assert len(handle.locations) == 2


class TestFailover:
    def test_regions_move_after_crash(self, monkeypatch):
        monkeypatch.setattr(hmaster, "DETECTION_S", 1.0)
        monkeypatch.setattr(hmaster, "RECOVERY_S", 0.5)
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(17))
        deployment = HBaseCluster(cluster, HBaseConfig(replication=2),
                                  small_storage(), TailDefenseConfig())
        client = HBaseClient(deployment, deployment.master_node)
        victim = deployment.server_nodes[0].node_id

        def scenario():
            for i in range(100):
                yield from client.put(key_for_index(i), i, 100)
            cluster.kill(victim)
            yield env.timeout(5.0)  # detection + recovery
            hits = 0
            for i in range(100):
                result = yield from client.get(key_for_index(i), 100)
                if result is not None:
                    hits += 1
            return hits

        hits = drive(env, scenario())
        assert hits == 100  # every region is served again
        assert deployment.master.failovers
        assert all(node_id != victim
                   for node_id in deployment.master.assignment.values())

    def test_moved_region_loses_locality(self, monkeypatch):
        monkeypatch.setattr(hmaster, "DETECTION_S", 1.0)
        monkeypatch.setattr(hmaster, "RECOVERY_S", 0.1)
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(19))
        deployment = HBaseCluster(
            cluster, HBaseConfig(replication=2, regions_per_server=1),
            small_storage(), TailDefenseConfig())
        client = HBaseClient(deployment, deployment.master_node)
        victim = deployment.server_nodes[0].node_id

        def scenario():
            for i in range(300):
                yield from client.put(key_for_index(i), i, 300)
            yield env.timeout(5)
            cluster.kill(victim)
            yield env.timeout(3)
            before = cluster.rpc_count
            for i in range(50):
                yield from client.get(key_for_index(i), 300)
            return cluster.rpc_count - before

        rpcs = drive(env, scenario())
        # Remote HFile reads add dn.read RPCs beyond the client's own gets.
        assert rpcs > 50


class TestBackoffSchedule:
    def test_pure_exponential_schedule_is_pinned(self):
        # rng=None must give exactly the doubling schedule, capped.
        delays = [backoff_delay(0.5, attempt, 5.0)
                  for attempt in range(1, 7)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 5.0, 5.0]

    def test_cap_applies_before_jitter(self):
        rng = RngRegistry(13).stream("hbase.client.backoff")
        for attempt in range(1, 12):
            delay = backoff_delay(0.5, attempt, 5.0, rng)
            assert delay <= 5.0

    def test_jitter_is_equal_jitter_within_half_delay(self):
        rng = RngRegistry(13).stream("hbase.client.backoff")
        for attempt in range(1, 7):
            uncapped = min(5.0, 0.5 * 2 ** (attempt - 1))
            delay = backoff_delay(0.5, attempt, 5.0, rng)
            assert uncapped / 2 <= delay < uncapped

    def test_jitter_is_deterministic_per_seed(self):
        # Same named sim-RNG stream + seed -> identical backoff schedule,
        # which is what keeps retried runs bit-identical across jobs.
        first = [backoff_delay(0.5, a, 5.0,
                               RngRegistry(42).stream("hbase.client.backoff"))
                 for a in range(1, 6)]
        again = [backoff_delay(0.5, a, 5.0,
                               RngRegistry(42).stream("hbase.client.backoff"))
                 for a in range(1, 6)]
        assert first == again
        other = [backoff_delay(0.5, a, 5.0,
                               RngRegistry(43).stream("hbase.client.backoff"))
                 for a in range(1, 6)]
        assert first != other
