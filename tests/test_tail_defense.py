"""Tests for the tail-latency defense layer.

Covers the three mechanisms end to end: deadline propagation through the
RPC transport, bounded handler/replica pools that shed under overflow,
and coordinator-side admission control — plus the driver contract that a
spent budget is never retried.
"""

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.hedging import parse_hedge_spec
from repro.cluster.topology import (Cluster, ClusterSpec, DeadlineExceeded,
                                    RpcTimeout, TailDefenseConfig)
from repro.core.experiment import ExperimentSession
from repro.core.sweep import CAMPAIGNS, TAIL_SCENARIOS, campaign_cells
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.resources import Overloaded
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec
from repro.ycsb.workload import STRESS_WORKLOADS

pytestmark = pytest.mark.hashseed


def small_storage():
    return StorageSpec(memtable_flush_bytes=8192, block_bytes=1024,
                       block_cache_bytes=8192)


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestHedgeSpec:
    def test_fixed_and_percentile_forms(self):
        assert parse_hedge_spec("50ms") == ("fixed", 0.05)
        assert parse_hedge_spec("p99") == ("percentile", 0.99)

    @pytest.mark.parametrize("spec", ["99percentile", "p0", "p100", "pxx"])
    def test_other_forms_are_refused_naming_the_accepted_ones(self, spec):
        with pytest.raises(ValueError, match=r"use 'NNms' .* or 'pNN' "):
            parse_hedge_spec(spec)


class TestDeadlinePropagation:
    def build(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=2), RngRegistry(5))
        return env, cluster

    def test_request_arriving_after_deadline_is_abandoned(self):
        env, cluster = self.build()
        handled = []

        def handler(payload):
            handled.append(payload)
            yield env.timeout(0)
            return "ok"

        cluster.node(1).register("t.echo", handler)

        def scenario():
            # The network transit alone outlasts this budget, so the
            # request lands at the callee already expired.
            with pytest.raises(DeadlineExceeded):
                yield from cluster.call(
                    cluster.node(0), cluster.node(1), "t.echo", "hi",
                    deadline=env.now + 1e-7)

        drive(env, scenario())
        env.run(until=env.now + 1.0)  # let the in-flight body land
        assert handled == []  # the callee never ran the handler
        assert cluster.abandoned_rpcs == 1

    def test_deadline_mid_handler_fails_caller_at_budget(self):
        env, cluster = self.build()

        def slow(payload):
            yield env.timeout(1.0)
            return "late"

        cluster.node(1).register("t.slow", slow)

        def scenario():
            with pytest.raises(DeadlineExceeded):
                yield from cluster.call(
                    cluster.node(0), cluster.node(1), "t.slow", None,
                    deadline=env.now + 0.1)
            return env.now

        elapsed = drive(env, scenario())
        # The caller observes the failure the moment the budget runs out,
        # not when the straggling handler finally answers.
        assert elapsed == pytest.approx(0.1, abs=1e-6)
        env.run(until=env.now + 2.0)

    def test_deadline_exceeded_is_a_timeout(self):
        # Existing timeout-handling paths (retries, fan-out accounting)
        # must keep working unmodified on the new error kind.
        assert issubclass(DeadlineExceeded, RpcTimeout)

    def test_call_without_deadline_unchanged(self):
        env, cluster = self.build()

        def handler(payload):
            yield env.timeout(0)
            return payload * 2

        cluster.node(1).register("t.double", handler)

        def scenario():
            result = yield from cluster.call(
                cluster.node(0), cluster.node(1), "t.double", 21)
            return result

        assert drive(env, scenario()) == 42
        assert cluster.abandoned_rpcs == 0


class TestSessionDeadlineBudget:
    def test_spent_budget_is_never_retried(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(11))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3, read_repair_chance=0.0),
            small_storage(), TailDefenseConfig(deadline_s=0.05))
        session = CassandraSession(cassandra, cassandra.client_node,
                                   retries=2)

        def delay(node, verb):
            # A generator handler serves remote callers only; the client
            # node, never a replica, coordinates every read here.
            orig = node.handlers[verb]

            def slow(payload):
                yield env.timeout(1.0)
                result = yield from orig(payload)
                return result

            node.handlers[verb] = slow

        def scenario():
            seeder = CassandraSession(cassandra, cassandra.client_node)
            yield from seeder.insert(key_for_index(0), "v", 100)
            for node in cassandra.server_nodes:
                delay(node, "c.read_data")
            start = env.now
            with pytest.raises(DeadlineExceeded):
                yield from session.read(key_for_index(0), 100)
            return env.now - start

        elapsed = drive(env, scenario())
        # One budget's worth of waiting, not one per retry attempt: the
        # deadline covers the whole operation including retries.
        assert elapsed == pytest.approx(0.05, abs=0.01)
        env.run(until=env.now + 5.0)


class TestBoundedPoolWiring:
    def test_cassandra_replica_pool_sheds_overflow(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(7))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=2), small_storage(),
            TailDefenseConfig(handler_slots=1, max_handler_queue=1))
        cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
        outcomes = []

        def reader():
            try:
                yield from cnode._handle_read_data(("nope", None))
                outcomes.append("ok")
            except Overloaded:
                outcomes.append("shed")

        for _ in range(5):
            env.process(reader())
        env.run(until=1.0)
        # One slot + one queue place: the other three are shed instantly.
        assert outcomes.count("shed") == 3
        assert cnode.replica_pool.shed == 3
        assert outcomes.count("ok") == 2

    def test_cassandra_pool_off_by_default(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(7))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=2), small_storage(),
            TailDefenseConfig())
        for cnode in cassandra.nodes.values():
            assert cnode.replica_pool is None

    def test_hbase_handler_pool_sheds_overflow(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=3), RngRegistry(9))
        hbase = HBaseCluster(
            cluster, HBaseConfig(replication=2, regions_per_server=1),
            small_storage(),
            TailDefenseConfig(handler_slots=1, max_handler_queue=0))
        server_id, rs = next(iter(hbase.regionservers.items()))
        region_id = next(rid for rid, nid in hbase.master.assignment.items()
                         if nid == server_id)
        outcomes = []

        def getter():
            try:
                yield from rs._handle_get((region_id, key_for_index(1)))
                outcomes.append("ok")
            except Overloaded:
                outcomes.append("shed")

        for _ in range(4):
            env.process(getter())
        env.run(until=1.0)
        assert outcomes.count("ok") == 1  # single slot, zero queue
        assert outcomes.count("shed") == 3
        assert rs.handler_pool.shed == 3

    def test_hbase_pool_off_by_default(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=3), RngRegistry(9))
        hbase = HBaseCluster(
            cluster, HBaseConfig(replication=2), small_storage(),
            TailDefenseConfig())
        for rs in hbase.regionservers.values():
            assert rs.handler_pool is None

    def test_queued_request_expires_with_deadline(self):
        # A request stuck in the replica queue withdraws its claim when
        # its propagated deadline passes — the queued work never runs.
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(7))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=2), small_storage(),
            TailDefenseConfig(handler_slots=1, max_handler_queue=4))
        cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
        pool = cnode.replica_pool
        hold = pool.request()  # occupy the only slot out-of-band
        assert hold.triggered
        outcomes = []

        def impatient():
            try:
                yield from cnode._handle_read_data(
                    ("nope", env.now + 0.01))
                outcomes.append("ok")
            except DeadlineExceeded:
                outcomes.append("expired")

        env.process(impatient())
        env.run(until=1.0)
        assert outcomes == ["expired"]
        assert pool.queue_len == 0  # the claim was withdrawn, not leaked
        pool.release(hold)


class TestCoordinatorAdmission:
    def test_second_inflight_read_is_shed(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(3))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3, read_repair_chance=0.0),
            small_storage(), TailDefenseConfig(max_inflight=1))
        cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
        outcomes = []

        def read():
            try:
                yield from cnode.coordinator.handle_read(
                    (key_for_index(0), "ONE", 100, None))
                outcomes.append("ok")
            except Overloaded:
                outcomes.append("shed")

        env.process(read())
        env.process(read())
        env.run(until=5.0)
        assert outcomes.count("shed") == 1
        assert outcomes.count("ok") == 1
        assert cnode.coordinator.stats["admission_sheds"] == 1

    def test_admission_off_by_default(self):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(3))
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3), small_storage(),
            TailDefenseConfig())
        cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
        assert cnode.coordinator.max_inflight is None


class TestNoSlotLeaks:
    """A claim on a bounded stage is withdrawn or released on every way
    out."""

    @pytest.mark.parametrize("scenario", TAIL_SCENARIOS)
    def test_tail_hedge_cells_end_with_every_pool_empty(self, scenario):
        (cell,) = campaign_cells("tail", "cassandra", CAMPAIGNS["tail"].quick,
                                 modes=("hedge",), scenarios=(scenario,))
        session = ExperimentSession(cell.config)
        session.load()
        (warm,) = cell.warm
        session.warm(operations=warm.operation_count)
        (run,) = cell.runs
        session.run_cell(workload=STRESS_WORKLOADS[run.workload],
                         target_throughput=run.target_throughput,
                         inject_faults=True)
        session.env.run(until=session.env.now + 2.0)
        assert any(cnode.coordinator.stats["hedged_reads"]
                   for cnode in session.cassandra.nodes.values())
        for cnode in session.cassandra.nodes.values():
            pool = cnode.replica_pool
            assert (len(pool.users), pool.queue_len) == (0, 0), cnode.node.node_id
