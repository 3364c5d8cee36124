"""Integration tests for the Cassandra engine: CLs, repair, hints."""

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel, UnavailableError
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import key_for_index
from repro.sim.kernel import AllOf, Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


def build(n_nodes=6, replication=3, seed=23, **config):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(seed))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=replication, **config),
        StorageSpec(memtable_flush_bytes=8192, block_bytes=1024,
                    block_cache_bytes=8192),
        TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node)
    return env, cluster, cassandra, session


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestBasicOperations:
    def test_insert_read_roundtrip(self):
        env, _, _, session = build()

        def scenario():
            yield from session.write(key_for_index(1), "hello", 100)
            result = yield from session.read(key_for_index(1), 100)
            return result

        assert drive(env, scenario())[0] == "hello"

    def test_read_missing_returns_none(self):
        env, _, _, session = build()

        def scenario():
            result = yield from session.read(key_for_index(9), 100)
            return result

        assert drive(env, scenario()) is None

    def test_scan_returns_sorted_rows(self):
        env, _, _, session = build()

        def scenario():
            for i in range(200):
                yield from session.write(key_for_index(i), i, 50)
            rows = yield from session.scan(key_for_index(3), 10, 50)
            return rows

        rows = drive(env, scenario())
        keys = [k for k, *_ in rows]
        assert len(rows) == 10
        assert keys == sorted(keys)

    def test_writes_reach_all_replicas_eventually(self):
        env, _, cassandra, session = build()

        def scenario():
            key = key_for_index(5)
            yield from session.write(key, "v", 100)
            yield env.timeout(2)  # async mutations drain
            replicas = cassandra.replicas_of(key)
            present = [cassandra.nodes[r].newest_timestamp(key) is not None
                       for r in replicas]
            return present

        assert all(drive(env, scenario()))


class TestConsistencyLevels:
    def test_quorum_read_after_quorum_write_is_strong(self):
        env, _, _, session = build()
        session.read_cl = ConsistencyLevel.QUORUM
        session.write_cl = ConsistencyLevel.QUORUM

        def scenario():
            stale = 0
            for i in range(100):
                key = key_for_index(i % 20)
                yield from session.write(key, f"gen{i}", 100)
                result = yield from session.read(key, 100)
                if result is None or result[0] != f"gen{i}":
                    stale += 1
            return stale

        assert drive(env, scenario()) == 0

    def test_write_all_read_one_is_strong(self):
        env, _, _, session = build()
        session.write_cl = ConsistencyLevel.ALL
        session.read_cl = ConsistencyLevel.ONE

        def scenario():
            stale = 0
            for i in range(100):
                key = key_for_index(i % 20)
                yield from session.write(key, f"gen{i}", 100)
                result = yield from session.read(key, 100)
                if result is None or result[0] != f"gen{i}":
                    stale += 1
            return stale

        assert drive(env, scenario()) == 0

    def test_higher_write_cl_has_higher_latency(self):
        def write_latency(cl):
            env, _, _, session = build(seed=31)
            session.write_cl = cl

            def scenario():
                latencies = []
                for i in range(200):
                    start = env.now
                    yield from session.write(key_for_index(i), i, 500)
                    latencies.append(env.now - start)
                tail = latencies[50:]
                return sum(tail) / len(tail)

            return env.run(until=env.process(scenario()))

        one = write_latency(ConsistencyLevel.ONE)
        all_ = write_latency(ConsistencyLevel.ALL)
        assert all_ > one

    def test_all_write_unavailable_when_replica_down(self):
        env, cluster, cassandra, session = build()
        session.write_cl = ConsistencyLevel.ALL

        def scenario():
            key = key_for_index(0)
            victim = cassandra.replicas_of(key)[1]
            cluster.kill(victim)
            try:
                yield from session.write(key, "x", 100)
            except UnavailableError:
                return "unavailable"

        assert drive(env, scenario()) == "unavailable"

    def test_one_write_survives_replica_down(self):
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(0)
            victim = cassandra.replicas_of(key)[1]
            cluster.kill(victim)
            result = yield from session.write(key, "x", 100)
            return result

        assert drive(env, scenario()) is True

    def test_quorum_tolerates_one_of_three_down(self):
        env, cluster, cassandra, session = build()
        session.read_cl = ConsistencyLevel.QUORUM
        session.write_cl = ConsistencyLevel.QUORUM

        def scenario():
            key = key_for_index(0)
            victim = cassandra.replicas_of(key)[2]
            cluster.kill(victim)
            yield from session.write(key, "survives", 100)
            result = yield from session.read(key, 100)
            return result

        assert drive(env, scenario())[0] == "survives"


class TestReadRepair:
    def test_blocking_repair_fixes_stale_replica(self):
        env, cluster, cassandra, session = build(read_repair_chance=1.0)

        def scenario():
            key = key_for_index(3)
            replicas = cassandra.replicas_of(key)
            yield from session.write(key, "v1", 100)
            yield env.timeout(1)
            # Manufacture staleness: write v2 directly to the main replica
            # only (bypassing the coordinator).
            main = cassandra.nodes[replicas[0]]
            yield main._handle_mutate((key, "v2", 100, env.now))
            # A read with repair chance 1.0 must detect and repair.
            result = yield from session.read(key, 100)
            yield env.timeout(1)
            timestamps = {cassandra.nodes[r].newest_timestamp(key)
                          for r in replicas}
            return result, timestamps

        result, timestamps = drive(env, scenario())
        assert result[0] == "v2"
        assert len(timestamps) == 1  # all replicas converged

    def test_repair_counters_increment(self):
        # At CL ONE the chance-triggered digests are beyond the CL, so
        # the mismatch repairs in the background (Cassandra 2.0: only a
        # CL-blocking digest mismatch reconciles in the foreground).
        env, cluster, cassandra, session = build(read_repair_chance=1.0)

        def scenario():
            key = key_for_index(4)
            replicas = cassandra.replicas_of(key)
            yield from session.write(key, "v1", 100)
            yield env.timeout(1)
            main = cassandra.nodes[replicas[0]]
            yield main._handle_mutate((key, "v2", 100, env.now))
            yield from session.read(key, 100)
            yield env.timeout(2)  # background reconcile completes

        drive(env, scenario())
        stats = cassandra.total_stats()
        assert stats["background_repairs"] >= 1
        assert stats["repair_mutations"] >= 1

    def test_foreground_repair_counter_at_quorum(self):
        # A mismatch within the CL-blocking digest set pays the
        # foreground reconcile — QUORUM's price for recent writes.
        env, cluster, cassandra, session = build(read_repair_chance=0.0)

        def scenario():
            key = key_for_index(4)
            replicas = cassandra.replicas_of(key)
            yield from session.write(key, "v1", 100,
                                     cl=ConsistencyLevel.ALL)
            yield env.timeout(1)
            blocking = cassandra.nodes[replicas[1]]
            yield blocking._handle_mutate((key, "v2", 100, env.now))
            result = yield from session.read(key, 100,
                                             cl=ConsistencyLevel.QUORUM)
            return result

        result = drive(env, scenario())
        assert result[0] == "v2"
        stats = cassandra.total_stats()
        assert stats["read_repairs"] >= 1
        assert stats["repair_mutations"] >= 1

    def test_no_repair_when_chance_zero(self):
        env, _, cassandra, session = build(read_repair_chance=0.0)

        def scenario():
            for i in range(50):
                yield from session.write(key_for_index(i), i, 100)
            for i in range(50):
                yield from session.read(key_for_index(i), 100)

        drive(env, scenario())
        assert cassandra.total_stats()["read_repairs"] == 0

    def test_async_mode_repairs_in_background(self):
        env, _, cassandra, session = build(read_repair_chance=1.0,
                                           blocking_read_repair=False)

        def scenario():
            key = key_for_index(6)
            replicas = cassandra.replicas_of(key)
            yield from session.write(key, "v1", 100)
            yield env.timeout(1)
            main = cassandra.nodes[replicas[0]]
            yield main._handle_mutate((key, "v2", 100, env.now))
            yield from session.read(key, 100)
            yield env.timeout(2)  # background reconcile completes
            return {cassandra.nodes[r].newest_timestamp(key)
                    for r in replicas}

        timestamps = drive(env, scenario())
        assert len(timestamps) == 1


class TestHintedHandoff:
    def test_hint_delivered_after_restart(self):
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(2)
            replicas = cassandra.replicas_of(key)
            victim = replicas[-1]
            cluster.kill(victim)
            yield from session.write(key, "hinted-value", 100)
            yield env.timeout(1)
            assert cassandra.nodes[victim].newest_timestamp(key) is None
            cluster.restart(victim)
            yield env.timeout(3)  # replay interval + delivery
            return cassandra.nodes[victim].newest_timestamp(key)

        assert drive(env, scenario()) is not None

    def test_hint_counters(self):
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(2)
            victim = cassandra.replicas_of(key)[-1]
            cluster.kill(victim)
            yield from session.write(key, "x", 100)

        drive(env, scenario())
        assert cassandra.total_stats()["hints_stored"] == 1


class TestEventualConsistency:
    def test_stale_reads_possible_then_converge(self):
        """R=W=ONE is not monotonic, but converges (the PACELC tradeoff
        the paper builds on)."""
        env, _, cassandra, session = build(seed=101)

        def scenario():
            key = key_for_index(11)
            # Burst of concurrent writers and readers on one hot key.
            def writer(n):
                for i in range(n):
                    yield from session.write(key, f"w{i}", 100)

            def reader(out):
                for _ in range(30):
                    result = yield from session.read(key, 100)
                    out.append(result)

            outputs = []
            writer_proc = env.process(writer(30))
            reader_proc = env.process(reader(outputs))
            yield AllOf(env, [writer_proc, reader_proc])
            yield env.timeout(2)
            replicas = cassandra.replicas_of(key)
            timestamps = {cassandra.nodes[r].newest_timestamp(key)
                          for r in replicas}
            return timestamps

        assert len(drive(env, scenario())) == 1  # converged
