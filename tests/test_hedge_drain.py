"""A hedged read's loser drains: nothing cancels it.

Rapid read protection sends a spare data read when the primary
straggles and takes the first successful answer.  The read it no longer
needs goes on to its end like any abandoned request: a remote one over
the wire, and the coordinator's own local read too — it keeps its slot
and its place in the disk queue, reads its block, and releases both.
Only a loser that breaks (a bug in its handler) does not go unheard.
"""

import gc

import pytest

from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.hedging import HedgePolicy
from repro.cluster.topology import (AsyncCall, Cluster, ClusterSpec,
                                    TailDefenseConfig)
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.cache import BlockCache
from repro.storage.lsm import StorageSpec

pytestmark = pytest.mark.hashseed

KEY = key_for_index(5)


def _failed_calls(env):
    """The RPCs of ``env`` still in memory that settled with a failure
    (a timeout, a shed, a cancellation) instead of an answer."""
    return [obj._value for obj in gc.get_objects()
            if type(obj) is AsyncCall and obj.env is env
            and isinstance(obj._value, BaseException)]


@pytest.mark.parametrize("pooled", [False, True], ids=["unbounded", "pooled"])
def test_local_primary_loses_and_drains(pooled):
    """The coordinator is the key's first replica, its read stuck on a
    cold block behind a busy disk; the remote spare wins.  The local
    read then completes on its own: it counts its lookup, reads the
    block, and leaves no slot, queue place or request in flight."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(99))
    bounds = {"handler_slots": 1, "max_handler_queue": 4} if pooled else {}
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=3, read_repair_chance=0.0),
        StorageSpec(), TailDefenseConfig(hedge="5ms", **bounds))
    first, second, _ = cassandra.replicas_of(KEY)
    cnode = cassandra.nodes[first]
    coordinator, tree, disk = cnode.coordinator, cnode.tree, cnode.node.disk
    contenders = []
    plain_read = coordinator._replica

    def spying_read(*args, **kwargs):
        contenders.append(plain_read(*args, **kwargs))
        return contenders[-1]

    def scenario():
        yield coordinator.handle_write(
            (KEY, "value", 100, env.now, ConsistencyLevel.ALL.value))
        tree._rotate()
        yield env.timeout(0.5)
        assert tree.n_sstables == 1 and not tree.flushing
        tree.cache = BlockCache(1 << 20)   # the local read goes to disk
        hold = disk._spindle.request()
        assert hold.triggered
        coordinator._replica = spying_read
        gets = tree.stats["gets"]
        found = yield coordinator.handle_read(
            (KEY, ConsistencyLevel.ONE.value, 100))
        return found, hold, gets

    (value, _), hold, gets = env.run(until=env.process(scenario()))
    # The client has the spare's answer; the local primary is still
    # queued for the spindle.
    assert value == "value"
    assert coordinator.stats["hedge_wins"] == 1
    primary, spare = contenders
    assert not isinstance(primary, AsyncCall) and isinstance(spare, AsyncCall)
    assert spare.value[0] == "value" and not primary.triggered
    assert coordinator.inflight == 0
    busy, block_reads = disk.busy_time, tree.stats["block_reads"]

    disk._spindle.release(hold)
    env.run(until=env.now + 5.0)
    # The loser was not cancelled: it finished with its own answer.
    assert primary.value[0] == "value"
    assert tree.stats["block_reads"] == block_reads + 1
    assert disk.busy_time > busy
    assert tree.stats["gets"] == gets + 1
    assert coordinator.inflight == 0
    assert not _failed_calls(env)
    for node in cassandra.nodes.values():
        assert not node.node.disk._spindle.users
        pool = node.replica_pool
        if pooled:
            assert (len(pool.users), pool.queue_len) == (0, 0)
        else:
            assert pool is None


def test_remote_primary_loses_and_drains():
    """The other way round: the coordinator's own read is the spare and
    wins; the stalled remote primary's call settles, later, with the
    answer its replica sent."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(99))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=3, read_repair_chance=0.0),
        StorageSpec(), TailDefenseConfig(hedge="5ms"))
    first, second, _ = cassandra.replicas_of(KEY)
    coordinator = cassandra.nodes[second].coordinator
    node = cassandra.nodes[first].node
    plain = node.handlers["c.read_data"]

    def slow_read(payload):
        yield env.timeout(1.0)
        return (yield plain(payload))

    node.handlers["c.read_data"] = slow_read
    contenders = []
    plain_read = coordinator._replica

    def spying_read(*args, **kwargs):
        contenders.append(plain_read(*args, **kwargs))
        return contenders[-1]

    def scenario():
        yield coordinator.handle_write(
            (KEY, "value", 100, env.now, ConsistencyLevel.ALL.value))
        yield env.timeout(0.5)
        coordinator._replica = spying_read
        return (yield coordinator.handle_read(
            (KEY, ConsistencyLevel.ONE.value, 100)))

    value, _ = env.run(until=env.process(scenario()))
    assert value == "value" and coordinator.stats["hedge_wins"] == 1
    primary, spare = contenders
    assert isinstance(primary, AsyncCall) and not primary.triggered
    answered = env.now
    env.run(until=env.now + 5.0)
    assert primary.value[0] == "value"
    assert all(not table for _, table in cluster._wheel._pending.values())
    assert coordinator.inflight == 0
    assert env.now - answered >= 0.9


def test_hbase_spare_win_leaves_the_primary_to_settle():
    """The HBase mirror: a hedged get whose spare wins leaves the
    primary ``AsyncCall`` to settle with its own response."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(17))
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=2),
        StorageSpec(), TailDefenseConfig(hedge="5ms"))
    client = HBaseClient(hbase, hbase.master_node)
    region = hbase.region_for_token(token_of(KEY))
    rs = hbase.regionservers[hbase.master.assignment[region.region_id]]
    handlers = rs.node.handlers
    plain = handlers["rs.get"]

    def stalled(payload):
        yield env.timeout(1.0)
        return (yield from plain(payload))

    def stall_first(payload):
        handlers["rs.get"] = plain
        return stalled(payload)

    calls = []
    plain_call = cluster.call_async

    def spying_call(*args, **kwargs):
        calls.append(plain_call(*args, **kwargs))
        return calls[-1]

    def scenario():
        yield from client.write(KEY, "value", 100)
        handlers["rs.get"] = stall_first
        cluster.call_async = spying_call
        found = yield from client.read(KEY, 100)
        cluster.call_async = plain_call
        return found

    value, _ = env.run(until=env.process(scenario()))
    assert value == "value"
    gets = [call for call in calls if call.verb == "rs.get"]
    primary, spare = gets
    assert spare.value[0] == "value" and not primary.triggered
    env.run(until=env.now + 5.0)
    assert primary.value[0] == "value"
    assert not _failed_calls(env)
    assert all(not table for _, table in cluster._wheel._pending.values())


def test_a_loser_whose_handler_breaks_stops_the_run():
    """A hedge's losing contender is left to finish on its own, but a
    bug in its handler — an exception that is no modelled failure — is
    not a settled outcome to drop: it stops ``env.run()`` once the race
    is long decided."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=3), RngRegistry(5))
    client, slow, fast = cluster.nodes

    def broken(payload):
        yield env.timeout(0.5)
        return 1 / 0

    def quick(payload):
        yield env.timeout(0.001)
        return "spare"

    slow.register("get", broken)
    fast.register("get", quick)

    def launch_spare():
        return cluster.call_async(client, fast, "get", None, timeout=2.0)
        yield  # pragma: no cover - a generator, as race() expects

    def race():
        primary = cluster.call_async(client, slow, "get", None, timeout=2.0)
        return (yield from HedgePolicy("10ms").race(env, primary,
                                                    launch_spare))

    assert env.run(until=env.process(race())) == ("spare", True)
    with pytest.raises(ZeroDivisionError):
        env.run()
    assert env.now == pytest.approx(0.5, abs=0.01)
