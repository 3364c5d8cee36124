"""Unit tests for live Cassandra bootstrap.

The safety contract under test: across a topology change, no
acknowledged write is ever lost — the pending double-write window plus
range streaming keeps every key readable at its full replica set both
during and after the transfer.
"""

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


def build(n_nodes=7, spare_nodes=1, replication=3):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(91))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=replication,
                                 read_repair_chance=0.0),
        StorageSpec(memtable_flush_bytes=8192, block_bytes=1024,
                    block_cache_bytes=8192),
        TailDefenseConfig(), spare_nodes=spare_nodes)
    session = CassandraSession(cassandra, cassandra.client_node)
    return env, cluster, cassandra, session


def drive(env, generator):
    return env.run(until=env.process(generator))


def load_keys(env, session, count, prefix=0):
    def loader():
        for i in range(count):
            yield from session.write(key_for_index(prefix + i), i, 200)

    drive(env, loader())


class TestSpares:
    def test_spares_are_outside_the_ring(self):
        _, _, cassandra, _ = build(n_nodes=7, spare_nodes=2)
        spare_ids = [n.node_id for n in cassandra.server_nodes[-2:]]
        assert all(nid not in cassandra.ring.node_ids for nid in spare_ids)
        assert all(nid not in cassandra.nodes for nid in spare_ids)
        assert len(cassandra.ring.node_ids) == 4

    def test_spares_must_leave_a_server(self):
        with pytest.raises(ValueError):
            build(n_nodes=3, spare_nodes=2)

    def test_no_spares_matches_legacy_layout(self):
        _, _, cassandra, _ = build(n_nodes=5, spare_nodes=0)
        assert len(cassandra.ring.node_ids) == 4
        assert sorted(cassandra.nodes) == cassandra.ring.node_ids


class TestBootstrap:
    def test_joiner_enters_ring_and_holds_its_ranges(self):
        env, _, cassandra, session = build()
        load_keys(env, session, 60)
        spare = cassandra.scale_out_candidate()
        assert spare is not None
        drive(env, cassandra.bootstrap(spare))
        assert spare in cassandra.ring.node_ids
        assert spare in cassandra.nodes
        assert cassandra.streams  # data actually moved
        # Every key now placed on the joiner is readable from its tree.
        owned = [key_for_index(i) for i in range(60)
                 if spare in cassandra.replicas_of(key_for_index(i))]
        assert owned  # vnodes make this overwhelmingly likely
        joiner = cassandra.nodes[spare]
        for key in owned:
            assert joiner.newest_timestamp(key) is not None

    def test_no_lost_acked_writes_across_bootstrap(self):
        env, _, cassandra, session = build()
        session.write_cl = ConsistencyLevel.QUORUM
        session.read_cl = ConsistencyLevel.ALL
        load_keys(env, session, 40)
        spare = cassandra.scale_out_candidate()
        acked = {}

        def write_during():
            # Writes land while the bootstrap streams: these must
            # double-write into the joiner's pending ranges.
            for i in range(40, 80):
                key = key_for_index(i)
                yield from session.write(key, i, 200)
                acked[key] = i

        proc = env.process(cassandra.bootstrap(spare))
        env.process(write_during())
        env.run(until=proc)
        env.run(until=env.now + 1.0)

        def read_all():
            for key, value in acked.items():
                result = yield from session.read(key, 200)
                assert result is not None and result[0] == value

        drive(env, read_all())

    def test_bootstrap_rejects_ring_member_and_dead_node(self):
        env, cluster, cassandra, _ = build()
        member = cassandra.ring.node_ids[0]
        with pytest.raises(ValueError):
            drive(env, cassandra.bootstrap(member))
        spare = cassandra.scale_out_candidate()
        cluster.kill(spare)
        with pytest.raises(ValueError):
            drive(env, cassandra.bootstrap(spare))

    def test_pending_window_closes_after_commit(self):
        env, _, cassandra, session = build()
        load_keys(env, session, 20)
        spare = cassandra.scale_out_candidate()
        drive(env, cassandra.bootstrap(spare))
        assert not cassandra.placement.pending


class TestPendingRouting:
    def test_pending_targets_follow_arc_membership(self):
        env, _, cassandra, session = build()
        load_keys(env, session, 30)
        spare = cassandra.scale_out_candidate()
        seen_pending = {}

        def snapshot():
            # Sample pending routing mid-stream (before the commit).
            yield env.timeout(0.0)
            for i in range(30):
                key = key_for_index(i)
                targets = cassandra.placement.pending.targets_for_token(
                    token_of(key))
                seen_pending[key] = targets

        env.process(snapshot())
        drive(env, cassandra.bootstrap(spare))
        gained = [key for key, targets in seen_pending.items()
                  if spare in targets]
        # The joiner takes over some arcs, and pending routing pointed
        # writes for exactly those keys at it before the ring switched.
        assert gained
        for key in gained:
            assert spare in cassandra.replicas_of(key)
