"""One failure contract: every :class:`ModelledFailure` is the call's value.

The transport settles an RPC whose handler ends in a modelled failure —
whichever kind, and whether or not anyone waits — with the exception as
its value, traceback-free; only a bug fails the call.  Every consumer
above it decides by the same marker, so a failure kind that no module
names is still counted under its own name, and a hedged read whose
primary is refused is answered by the race's spare instead of the retry
loop.
"""

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel, UnavailableError
from repro.cassandra.coordinator import WriteTimeoutError
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.hbase.regionserver import NotServingRegion
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment, Event, ModelledFailure
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec
from repro.ycsb.client import YcsbClient
from repro.ycsb.db import CassandraBinding
from repro.ycsb.workload import STRESS_WORKLOADS, Workload

pytestmark = pytest.mark.hashseed

KEY = key_for_index(3)


def _cassandra(n_nodes=4, replication=2):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(5))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=replication), StorageSpec(),
        TailDefenseConfig())
    return env, cluster, cassandra


def _settled_as_value(env, call, failure):
    """Run with a waiter on ``call``: it hears a success whose value is a
    ``failure`` without a traceback."""
    seen = []
    call.callbacks.append(seen.append)
    env.run(until=env.now + 5.0)
    assert seen == [call]
    assert call._ok
    assert type(call._value) is failure
    assert call._value.__traceback__ is None


def test_remote_coordinator_unavailable_is_the_calls_value():
    env, cluster, cassandra = _cassandra()
    coordinator, other = cassandra.replicas_of(KEY)
    cluster.kill(other)
    call = cluster.call_async(
        cassandra.client_node, cluster.node(coordinator), "c.coord_write",
        (KEY, "v", 100, 0.0, ConsistencyLevel.ALL.value), timeout=5.0)
    _settled_as_value(env, call, UnavailableError)


def test_remote_coordinator_write_timeout_is_the_calls_value():
    """A coordinator that holds no replica of the key, its replicas'
    mutations never answered: the write times out at the coordinator."""
    env, cluster, cassandra = _cassandra()
    replicas = cassandra.replicas_of(KEY)
    coordinator = next(node.node_id for node in cassandra.server_nodes
                       if node.node_id not in replicas)
    for replica in replicas:
        cluster.node(replica).handlers["c.mutate"] = \
            lambda payload: Event(env)
    call = cluster.call_async(
        cassandra.client_node, cluster.node(coordinator), "c.coord_write",
        (KEY, "v", 100, 0.0, ConsistencyLevel.ONE.value), timeout=5.0)
    _settled_as_value(env, call, WriteTimeoutError)


def test_region_server_refusal_is_the_calls_value():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=1),
        StorageSpec(), TailDefenseConfig())
    region = hbase.region_for_token(token_of(KEY))
    stranger = next(rs for node_id, rs in hbase.regionservers.items()
                    if node_id != hbase.master.assignment[region.region_id])
    call = cluster.call_async(hbase.master_node, stranger.node, "rs.get",
                              (region.region_id, KEY), timeout=1.0)
    _settled_as_value(env, call, NotServingRegion)


class Fenced(ModelledFailure):
    """A failure kind that no module lists."""


def test_an_unlisted_failure_kind_is_an_operation_error():
    """Every coordinator's read verb fails with :class:`Fenced`: the
    YCSB client counts each read under that name, and the run ends."""
    env, cluster, cassandra = _cassandra(n_nodes=5)

    def fenced(payload):
        raise Fenced("read fenced off")

    workload = Workload(STRESS_WORKLOADS["read_update"], 100,
                        RngRegistry(3).stream("wl"))
    session = CassandraSession(cassandra, cassandra.client_node)
    client = YcsbClient(env, CassandraBinding(session), workload)
    env.run(until=env.process(client.load(100, n_threads=4)))
    for node in cassandra.server_nodes:
        node.handlers["c.coord_read"] = fenced
    result = env.run(until=env.process(
        client.run(200, n_threads=4, warmup_fraction=0.0)))
    errors = result.measurements.errors_by_type
    assert list(errors) == ["Fenced"]
    assert errors["Fenced"] == result.measurements.errors["read"] > 0
    assert errors["Fenced"] + result.measurements.total_ops == 200


def test_refused_hedged_read_is_answered_by_the_spare():
    """A stale region map sends the primary to a server that no longer
    holds the region; its refusal is a failed contender, so the race
    sends the spare — re-located through the HMaster — at once, and the
    read needs no retry and waits no backoff."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(17))
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=2),
        StorageSpec(), TailDefenseConfig(hedge="50ms"))
    client = HBaseClient(hbase, hbase.master_node)
    region_id = hbase.region_for_token(token_of(KEY)).region_id
    owner = client._assignment[region_id]
    stranger = next(rs for rs in hbase.regionservers if rs != owner)
    calls = []
    plain_call = cluster.call_async

    def spying_call(*args, **kwargs):
        calls.append(plain_call(*args, **kwargs))
        return calls[-1]

    def scenario():
        yield from client.put(KEY, "value", 100)
        client._assignment[region_id] = stranger
        cluster.call_async = spying_call
        start = env.now
        found = yield from client.get(KEY, 100)
        cluster.call_async = plain_call
        return found, env.now - start

    (value, _), elapsed = env.run(until=env.process(scenario()))
    assert value == "value"
    assert client.retries == 0
    assert elapsed < 0.25   # no backoff (>= 0.25 s) was waited
    primary, spare = [call for call in calls if call.verb == "rs.get"]
    assert type(primary.value) is NotServingRegion
    assert spare.value[0] == "value"
