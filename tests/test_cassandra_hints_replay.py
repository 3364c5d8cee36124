"""Edge cases for hinted handoff and eventual delivery."""

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.deployment import CassandraCluster
from repro.cassandra.hints import Hint
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


def build(seed=37):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(seed))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=3, hint_replay_interval_s=0.5),
        StorageSpec(memtable_flush_bytes=8192, block_bytes=1024,
                    block_cache_bytes=8192),
        TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node)
    return env, cluster, cassandra, session


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestHintReplay:
    def test_multiple_hints_all_delivered(self):
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(1)
            victim = cassandra.replicas_of(key)[-1]
            cluster.kill(victim)
            # Several writes pile up hints for the dead replica.
            for i in range(10):
                yield from session.insert(key, f"v{i}", 100)
            yield env.timeout(1)
            cluster.restart(victim)
            yield env.timeout(3)
            return (cassandra.nodes[victim].newest_timestamp(key),
                    sum(len(n.hints) for n in cassandra.nodes.values()))

        newest, outstanding = drive(env, scenario())
        assert newest is not None
        assert outstanding == 0

    def test_hints_survive_second_crash_of_target(self):
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(2)
            victim = cassandra.replicas_of(key)[-1]
            cluster.kill(victim)
            yield from session.insert(key, "held", 100)
            # Flap: back up briefly, down again before replay can land...
            cluster.restart(victim)
            cluster.kill(victim)
            yield env.timeout(2)
            # ...then recover for real.
            cluster.restart(victim)
            yield env.timeout(3)
            return cassandra.nodes[victim].newest_timestamp(key)

        assert drive(env, scenario()) is not None

    def test_hint_carries_newest_version(self):
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(3)
            victim = cassandra.replicas_of(key)[-1]
            cluster.kill(victim)
            yield from session.insert(key, "first", 100)
            yield from session.insert(key, "second", 100)
            cluster.restart(victim)
            yield env.timeout(3)
            # The victim must converge to the *newest* version.
            live = cassandra.replicas_of(key)[0]
            return (cassandra.nodes[victim].newest_timestamp(key),
                    cassandra.nodes[live].newest_timestamp(key))

        victim_ts, live_ts = drive(env, scenario())
        assert victim_ts == live_ts

    def test_replay_pauses_while_owner_dead(self):
        # Regression: a dead coordinator must not deliver its own hints;
        # replay resumes only after the owner restarts.
        env, cluster, cassandra, session = build()

        def scenario():
            key = key_for_index(4)
            victim = cassandra.replicas_of(key)[-1]
            cluster.kill(victim)
            yield from session.insert(key, "held", 100)
            owners = [n.node.node_id for n in cassandra.nodes.values()
                      if len(n.hints)]
            assert owners, "the write should have stored a hint"
            owner = owners[0]
            # Now the coordinator holding the hint dies too, and the
            # original victim comes back: the hint is deliverable, but
            # its owner is down — nothing may move.
            cluster.kill(owner)
            cluster.restart(victim)
            yield env.timeout(3)
            delivered_while_down = cassandra.nodes[owner].hints.delivered
            still_held = len(cassandra.nodes[owner].hints)
            # Owner recovers: replay resumes and drains the queue.
            cluster.restart(owner)
            yield env.timeout(3)
            return (delivered_while_down, still_held,
                    len(cassandra.nodes[owner].hints),
                    cassandra.nodes[victim].newest_timestamp(key))

        delivered_while_down, held, held_after, newest = drive(env, scenario())
        assert delivered_while_down == 0
        assert held == 1
        assert held_after == 0
        assert newest is not None

    def test_no_hints_when_everyone_alive(self):
        env, _, cassandra, session = build()

        def scenario():
            for i in range(20):
                yield from session.insert(key_for_index(i), i, 100)

        drive(env, scenario())
        assert cassandra.total_stats()["hints_stored"] == 0


class TestBacklogRemoval:
    """Delivered hints leave the store in one pass per wave, by identity
    — ``list.remove`` per hint was a scan through ``Hint.__eq__``,
    quadratic in exactly the backlog a partition builds."""

    def test_large_backlog_drains_without_comparing_hints(self, monkeypatch):
        env, cluster, cassandra, _ = build()
        owner = cassandra.server_nodes[0].node_id
        alive, dead = [n.node_id for n in cassandra.server_nodes
                       if n.node_id != owner][:2]
        store = cassandra.nodes[owner].hints
        cluster.kill(dead)
        compared = []
        plain_eq = Hint.__eq__
        monkeypatch.setattr(Hint, "__eq__", lambda a, b: (
            compared.append(1), plain_eq(a, b))[1])

        n = 3_000
        hints = [Hint(alive if i % 3 else dead, key_for_index(i), i, 100,
                      float(i)) for i in range(n)]
        twin = Hint(alive, key_for_index(1), 1, 100, 1.0)   # == hints[1]
        for hint in hints + [twin]:
            store.store(hint)
        held = [h for h in hints if h.target_node_id == dead]
        late = Hint(dead, key_for_index(n), n, 100, float(n))

        def scenario():
            # A few waves into the round: a hint stored now is not part
            # of it and must survive it, after the others.
            yield env.timeout(store.replay_interval_s + 3e-3)
            assert 0 < store.delivered < n - len(held) + 1
            store.store(late)
            yield env.timeout(10.0)

        drive(env, scenario())
        assert not compared
        # Everything for the live target went, the equal twins both;
        # what is held back kept its order, the late one last.
        assert store.delivered == n - len(held) + 1
        assert len(store) == len(held) + 1
        assert all(a is b for a, b in zip(store._hints, held + [late]))
        assert store.stored == n + 2
        assert store.attempts == store.delivered + store.failures
