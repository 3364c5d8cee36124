"""Unit tests for coordinator plumbing: wait_for_k and scan routing."""

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel, UnavailableError
from repro.cassandra.coordinator import (ReadTimeoutError, WriteTimeoutError,
                                         wait_for_k)
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestWaitForK:
    def make_proc(self, env, delay, value=None, fail=False):
        def body():
            yield env.timeout(delay)
            if fail:
                return RuntimeError("converted failure")
            return value

        return env.process(body())

    def test_returns_after_k_fastest(self, env):
        procs = [self.make_proc(env, d) for d in (1.0, 2.0, 5.0)]

        def waiter():
            yield from wait_for_k(env, procs, 2, RuntimeError("nope"))
            return env.now

        assert drive(env, waiter()) == 2.0

    def test_k_zero_returns_immediately(self, env):
        def waiter():
            yield from wait_for_k(env, [], 0, RuntimeError("nope"))
            return env.now

        assert drive(env, waiter()) == 0.0

    def test_k_larger_than_procs_raises(self, env):
        procs = [self.make_proc(env, 1.0)]

        def waiter():
            try:
                yield from wait_for_k(env, procs, 2, RuntimeError("too few"))
            except RuntimeError as exc:
                return str(exc)

        assert drive(env, waiter()) == "too few"

    def test_exception_values_do_not_count(self, env):
        procs = [self.make_proc(env, 1.0, fail=True),
                 self.make_proc(env, 2.0, fail=True),
                 self.make_proc(env, 3.0)]

        def waiter():
            yield from wait_for_k(env, procs, 1, RuntimeError("nope"))
            return env.now

        assert drive(env, waiter()) == 3.0

    def test_all_failed_raises(self, env):
        procs = [self.make_proc(env, 1.0, fail=True),
                 self.make_proc(env, 2.0, fail=True)]

        def waiter():
            try:
                yield from wait_for_k(env, procs, 1,
                                      ReadTimeoutError("all failed"))
            except ReadTimeoutError:
                return "raised"

        assert drive(env, waiter()) == "raised"

    def test_already_finished_procs_counted(self, env):
        proc = self.make_proc(env, 0.5)
        env.run(until=1.0)

        def waiter():
            yield from wait_for_k(env, [proc], 1, RuntimeError("nope"))
            return env.now

        assert drive(env, waiter()) == 1.0

    def make_raising_proc(self, env, delay):
        def body():
            yield env.timeout(delay)
            raise RuntimeError("replica process died")

        return env.process(body())

    def test_raised_failure_after_done_is_defused(self, env):
        # The losing proc fails AFTER done triggered early; its failure
        # must not crash the simulation via run()'s unhandled check.
        procs = [self.make_proc(env, 1.0), self.make_raising_proc(env, 2.0)]

        def waiter():
            yield from wait_for_k(env, procs, 1, RuntimeError("nope"))
            return env.now

        proc = env.process(waiter())
        assert env.run(until=proc) == 1.0
        env.run()  # drain the loser's failure

    def test_raised_failure_before_done_not_counted(self, env):
        procs = [self.make_raising_proc(env, 1.0), self.make_proc(env, 2.0)]

        def waiter():
            yield from wait_for_k(env, procs, 1, RuntimeError("nope"))
            return env.now

        proc = env.process(waiter())
        assert env.run(until=proc) == 2.0
        env.run()

    def test_all_raised_failures_raise_the_given_failure(self, env):
        procs = [self.make_raising_proc(env, 1.0),
                 self.make_raising_proc(env, 2.0)]

        def waiter():
            try:
                yield from wait_for_k(env, procs, 1,
                                      WriteTimeoutError("no acks"))
            except WriteTimeoutError:
                return "timed out"

        proc = env.process(waiter())
        assert env.run(until=proc) == "timed out"
        env.run()

    def test_timeout_value_and_raised_failure_same_wave(self, env):
        # One proc resolves with an exception *value* (the RPC helpers'
        # timeout convention) and another *raises*, both at the same
        # instant as the success; the mixed wave must neither satisfy k
        # early nor crash the kernel via the raised failure.
        procs = [self.make_proc(env, 1.0, fail=True),
                 self.make_raising_proc(env, 1.0),
                 self.make_proc(env, 1.0, value="ok")]

        def waiter():
            yield from wait_for_k(env, procs, 1, ReadTimeoutError("no data"))
            return env.now

        proc = env.process(waiter())
        assert env.run(until=proc) == 1.0
        env.run()  # the raised failure must have been defused

    def test_same_wave_mixed_failures_raise_once_all_finished(self, env):
        procs = [self.make_proc(env, 1.0, fail=True),
                 self.make_raising_proc(env, 1.0)]

        def waiter():
            try:
                yield from wait_for_k(env, procs, 1,
                                      ReadTimeoutError("no data"))
            except ReadTimeoutError:
                return env.now

        proc = env.process(waiter())
        assert env.run(until=proc) == 1.0
        env.run()

    def test_killed_replica_mid_write_does_not_crash(self, env):
        # Kernel-level version of "kill a replica mid-write": the write
        # already has its CL ack when another replica's ack fails (the
        # node crashed) as a raised failure.
        acks = [self.make_proc(env, 1.0), env.event()]

        def kill_replica():
            yield env.timeout(2.0)
            acks[1].fail(RuntimeError("node crashed"))

        env.process(kill_replica())

        def coordinator():
            yield from wait_for_k(env, acks, 1, WriteTimeoutError("no acks"))
            return env.now

        proc = env.process(coordinator())
        assert env.run(until=proc) == 1.0
        env.run()  # the killed ack resolves as a failure; must be defused


class TestCoordinatorEdgeCases:
    def build(self, **kwargs):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(77))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3, **kwargs), StorageSpec(),
            TailDefenseConfig())
        session = CassandraSession(cassandra, cassandra.client_node)
        return env, cluster, cassandra, session

    def test_read_unavailable_when_too_few_replicas(self):
        env, cluster, cassandra, session = self.build()
        session.read_cl = ConsistencyLevel.ALL

        def scenario():
            key = key_for_index(0)
            yield from session.write(key, "x", 100)
            for replica in cassandra.replicas_of(key)[1:]:
                cluster.kill(replica)
            try:
                yield from session.read(key, 100)
            except UnavailableError:
                return "unavailable"

        assert drive(env, scenario()) == "unavailable"

    def test_coordinator_skips_dead_ring_members(self):
        env, cluster, cassandra, session = self.build()

        def scenario():
            # Kill one non-client node; round-robin must skip it.
            cluster.kill(cassandra.server_nodes[0].node_id)
            results = []
            for i in range(10):
                key = key_for_index(i)
                try:
                    yield from session.write(key, i, 100)
                    results.append(True)
                except Exception:
                    results.append(False)
            return results

        assert all(drive(env, scenario()))

    def test_scan_served_by_main_replica(self):
        env, _, cassandra, session = self.build()

        def scenario():
            for i in range(100):
                yield from session.write(key_for_index(i), i, 50)
            yield env.timeout(2)
            before = {r: node.ops["scan"]
                      for r, node in cassandra.nodes.items()}
            key = key_for_index(7)
            yield from session.scan(key, 5, 50)
            after = {r: node.ops["scan"]
                     for r, node in cassandra.nodes.items()}
            scanned = [r for r in after if after[r] > before[r]]
            return scanned, cassandra.replicas_of(key)[0]

        scanned, main = drive(env, scenario())
        assert scanned == [main]

    def test_write_survives_replica_crash_mid_write(self):
        """A replica process that dies (raises) mid-write must not crash
        the simulation once the CL ack already satisfied the client."""
        env, cluster, cassandra, session = self.build()
        key = key_for_index(3)
        coordinator_id = cassandra.server_nodes[0].node_id  # first RR pick
        victim_id = [r for r in cassandra.replicas_of(key)
                     if r != coordinator_id][-1]
        victim = cassandra.nodes[victim_id].node

        def crashing_mutate(payload):
            yield env.timeout(0.005)
            raise RuntimeError("replica killed mid-write")

        victim.handlers["c.mutate"] = crashing_mutate

        def scenario():
            result = yield from session.write(key, "value", 100)
            return result

        assert drive(env, scenario()) is True
        env.run(until=env.now + 5.0)  # drain in-flight replica procs

    def test_coordinator_stats_accumulate(self):
        env, _, cassandra, session = self.build()

        def scenario():
            for i in range(20):
                yield from session.write(key_for_index(i), i, 100)
            for i in range(20):
                yield from session.read(key_for_index(i), 100)

        drive(env, scenario())
        stats = cassandra.total_stats()
        assert stats["writes"] == 20
        assert stats["reads"] == 20


class TestReadRepairLatencyPath:
    """Cassandra 2.0 semantics: only CL-blocking digests may reconcile in
    the foreground; chance-triggered beyond-CL digests repair async."""

    def build(self, **kwargs):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(77))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3, **kwargs), StorageSpec(),
            TailDefenseConfig())
        session = CassandraSession(cassandra, cassandra.client_node)
        return env, cluster, cassandra, session

    def diverge(self, env, cassandra, session, key):
        """Write everywhere, then give one digest replica a newer version.

        The divergent replica is ``replicas[1]`` — at CL ONE a beyond-CL
        digest target, at QUORUM the CL-blocking digest — and its own
        coordinator is used so the divergent digest is the local fast
        path (processed before the remote data read returns, which is
        exactly the case the old code mishandled).
        """
        def setup():
            yield from session.write(key, "v0", 100,
                                     cl=ConsistencyLevel.ALL)
            yield env.timeout(1.0)
            replicas = cassandra.replicas_of(key)
            owner = cassandra.nodes[replicas[1]]
            yield owner._handle_mutate((key, "v1", 100, env.now))
            return owner

        return drive(env, setup())

    def test_beyond_cl_mismatch_repairs_in_background(self):
        env, _, cassandra, session = self.build(read_repair_chance=1.0)
        key = key_for_index(0)
        owner = self.diverge(env, cassandra, session, key)
        coordinator = owner.coordinator

        def read():
            result = yield from coordinator.handle_read(
                (key, ConsistencyLevel.ONE.value, 100))
            return result

        value, _ts = drive(env, read())
        # The response is the data replica's (older) version: the
        # divergent digest is beyond the CL and must not block.
        assert value == "v0"
        assert coordinator.stats["read_repairs"] == 0
        # ...but the mismatch is reconciled asynchronously.
        env.run(until=env.now + 5.0)
        assert coordinator.stats["background_repairs"] == 1
        assert coordinator.stats["repair_mutations"] >= 1

        def read_after_repair():
            result = yield from coordinator.handle_read(
                (key, ConsistencyLevel.ONE.value, 100))
            return result

        value, _ts = drive(env, read_after_repair())
        assert value == "v1"

    def test_cl_blocking_mismatch_still_reconciles_foreground(self):
        env, _, cassandra, session = self.build(read_repair_chance=0.0)
        key = key_for_index(0)
        owner = self.diverge(env, cassandra, session, key)
        coordinator = owner.coordinator

        def read():
            result = yield from coordinator.handle_read(
                (key, ConsistencyLevel.QUORUM.value, 100))
            return result

        value, _ts = drive(env, read())
        # QUORUM blocks on replicas[1]'s digest; the mismatch pays the
        # foreground reconcile and the client sees the newest version.
        assert value == "v1"
        assert coordinator.stats["read_repairs"] == 1


class TestPerRequestClOverride:
    """The adaptive controller's actuation path: a per-request ``cl=``
    override must reach the coordinator verbatim — honored when
    satisfiable, an honest ``UnavailableError`` when not, never a silent
    downgrade to the session default."""

    def build(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(77))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3,
                                     read_cl=ConsistencyLevel.ONE,
                                     write_cl=ConsistencyLevel.ONE),
            StorageSpec(), TailDefenseConfig())
        session = CassandraSession(cassandra, cassandra.client_node)
        return env, cluster, cassandra, session

    def test_read_override_reaches_coordinator(self):
        env, _, cassandra, session = self.build()

        def scenario():
            key = key_for_index(0)
            yield from session.write(key, "x", 100)
            yield from session.read(key, 100)  # session default: ONE
            yield from session.read(key, 100, cl=ConsistencyLevel.QUORUM)

        drive(env, scenario())
        stats = cassandra.total_stats()
        # The per-CL breakdown proves the override was coordinated at
        # QUORUM rather than folded into the session's ONE.
        assert stats["reads_ONE"] == 1
        assert stats["reads_QUORUM"] == 1

    def test_write_override_reaches_coordinator(self):
        env, _, cassandra, session = self.build()

        def scenario():
            key = key_for_index(0)
            yield from session.write(key, "x", 100)
            yield from session.write(key, "y", 100,
                                     cl=ConsistencyLevel.ALL)

        drive(env, scenario())
        stats = cassandra.total_stats()
        assert stats["writes_ONE"] == 1
        assert stats["writes_ALL"] == 1

    def test_unreachable_read_override_raises_not_downgrades(self):
        env, cluster, cassandra, session = self.build()

        def scenario():
            key = key_for_index(0)
            yield from session.write(key, "x", 100)
            # Leave one replica alive: ONE is satisfiable, QUORUM is not.
            for replica in cassandra.replicas_of(key)[1:]:
                cluster.kill(replica)
            try:
                yield from session.read(key, 100,
                                        cl=ConsistencyLevel.QUORUM)
            except UnavailableError as exc:
                message = str(exc)
            else:
                return "quorum read silently served"
            # The same key at the session default still works — the
            # override failed honestly instead of falling back to it.
            value, _ts = yield from session.read(key, 100)
            return message, value

        message, value = drive(env, scenario())
        assert message == "read QUORUM needs 2 replicas, 1 alive"
        assert value == "x"
        stats = cassandra.total_stats()
        assert stats["reads_QUORUM"] == 1  # counted, then refused
        assert stats["reads_ONE"] == 1

    def test_unreachable_write_override_raises_not_downgrades(self):
        env, cluster, cassandra, session = self.build()

        def scenario():
            key = key_for_index(0)
            yield from session.write(key, "x", 100)
            for replica in cassandra.replicas_of(key)[1:]:
                cluster.kill(replica)
            try:
                yield from session.write(key, "y", 100,
                                         cl=ConsistencyLevel.QUORUM)
            except UnavailableError as exc:
                return str(exc)
            return "quorum write silently acked"

        assert drive(env, scenario()) == \
            "write QUORUM needs 2 replicas, 1 alive"


class TestHedgedReads:
    """Rapid read protection: speculative data reads racing the primary."""

    def build(self, **kwargs):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(99))
        kwargs.setdefault("read_repair_chance", 0.0)
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3, **kwargs), StorageSpec(),
            TailDefenseConfig(hedge="5ms"))
        session = CassandraSession(cassandra, cassandra.client_node)
        return env, cluster, cassandra, session

    def delay_handler(self, env, node, verb, delay_s):
        """Wrap a replica verb so it stalls ``delay_s`` before serving
        (a generator handler: remote callers only)."""
        orig = node.handlers[verb]

        def slow(payload):
            yield env.timeout(delay_s)
            result = yield from orig(payload)
            return result

        node.handlers[verb] = slow

    def setup_read(self, env, cassandra, session, key):
        """Insert ``key`` and pick a non-replica coordinator for it."""
        def seed():
            yield from session.write(key, "value", 100)
            yield env.timeout(1.0)

        drive(env, seed())
        replicas = cassandra.replicas_of(key)
        coord_id = next(n.node_id for n in cassandra.server_nodes
                        if n.node_id not in replicas)
        return replicas, cassandra.nodes[coord_id].coordinator

    def test_hedge_fires_and_spare_wins(self):
        env, cluster, cassandra, session = self.build()
        key = key_for_index(5)
        replicas, coordinator = self.setup_read(env, cassandra, session, key)
        # Primary stalls way past the 5 ms hedge delay; the spare's copy
        # answers long before it.
        self.delay_handler(env, cassandra.nodes[replicas[0]].node,
                           "c.read_data", 1.0)

        start = env.now

        def read():
            result = yield from coordinator.handle_read(
                (key, ConsistencyLevel.ONE.value, 100))
            return result, env.now - start

        (value, _ts), elapsed = drive(env, read())
        assert value == "value"
        assert elapsed < 1.0  # did not wait for the straggler
        assert coordinator.stats["hedged_reads"] == 1
        assert coordinator.stats["hedge_wins"] == 1
        env.run(until=env.now + 10.0)  # the losing primary drains cleanly

    def test_primary_win_lets_spare_drain(self):
        env, cluster, cassandra, session = self.build()
        key = key_for_index(5)
        replicas, coordinator = self.setup_read(env, cassandra, session, key)
        # Primary is slow enough to trigger the hedge but still finishes
        # far ahead of the (much slower) spare.
        self.delay_handler(env, cassandra.nodes[replicas[0]].node,
                           "c.read_data", 0.02)
        self.delay_handler(env, cassandra.nodes[replicas[1]].node,
                           "c.read_data", 5.0)

        start = env.now

        def read():
            result = yield from coordinator.handle_read(
                (key, ConsistencyLevel.ONE.value, 100))
            return result, env.now - start

        (value, _ts), elapsed = drive(env, read())
        assert value == "value"
        assert elapsed < 1.0  # the spare's 5 s stall never mattered
        assert coordinator.stats["hedged_reads"] == 1
        assert coordinator.stats["hedge_wins"] == 0
        # Nothing cancels the losing spare: its stalled replica still
        # serves the read, and the late answer crashes nothing.
        spare = cassandra.nodes[replicas[1]]
        served = spare.ops["read_data"]
        gets = spare.tree.stats["gets"]
        env.run(until=env.now + 10.0)
        assert spare.ops["read_data"] == served + 1
        assert spare.tree.stats["gets"] == gets + 1
        assert coordinator.inflight == 0
        assert coordinator.stats["hedge_wins"] == 0

    def test_no_hedge_without_spares(self):
        # With the repair chance forcing every replica into the read,
        # there is no spare left to hedge to.
        env, cluster, cassandra, session = self.build(
            read_repair_chance=1.0)
        key = key_for_index(5)
        replicas, coordinator = self.setup_read(env, cassandra, session, key)
        self.delay_handler(env, cassandra.nodes[replicas[0]].node,
                           "c.read_data", 0.05)

        def read():
            result = yield from coordinator.handle_read(
                (key, ConsistencyLevel.ONE.value, 100))
            return result

        value, _ts = drive(env, read())
        assert value == "value"
        assert coordinator.stats["hedged_reads"] == 0
        env.run(until=env.now + 10.0)
