"""A bug in a callback is as loud as a bug in a process.

Replica verbs are chains of callbacks (the transport's ``_RoundTrip``,
the bounded stage's ``Served``), and a chain decides for itself what to
do with an exception.  For every registered verb, behind a bounded pool
and without one, over the wire and through ``call_local``: an exception
that is not a :class:`ModelledFailure`, raised by the storage engine
once the request is past admission, stops ``env.run()`` with a traceback
that names the raising line — and leaves the pool with no holder.
"""

import traceback

import pytest

from repro.cassandra.deployment import CassandraCluster, CassandraSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.hbase.deployment import HBaseCluster, HBaseSpec
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment, Timeout
from repro.sim.rng import RngRegistry

KEY = key_for_index(3)
POOL = {"handler_slots": 1, "max_handler_queue": 2}


class EngineBug(Exception):
    """Deliberately not a ModelledFailure."""


def _broken(env, verb):
    """Stand-in for ``LsmTree.<verb>``: a put or a get raises when
    called, a scan in the middle of its walk."""
    def raising(*args, **kwargs):
        raise EngineBug(verb)

    def raising_scan(*args, **kwargs):
        yield Timeout(env, 1e-4)
        raise EngineBug(verb)

    return raising_scan if verb == "scan" else raising


def _cassandra(pooled):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    cassandra = CassandraCluster(cluster, CassandraSpec(
        replication=2, **(POOL if pooled else {})))
    cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
    return env, cluster, cassandra.client_node, cnode


CASSANDRA_VERBS = {
    "c.mutate": ("put", "_handle_mutate", (KEY, "v", 100, 1.0)),
    "c.read_data": ("get", "_handle_read_data", (KEY, None)),
    "c.read_digest": ("get", "_handle_read_digest", (KEY, None)),
    "c.scan": ("scan", "_handle_scan", (KEY, 5)),
}


def _run_to_the_bug(env, pool, issue):
    """Issue the request at 1 ms — queued behind a slot held out of band
    when there is a pool, so the engine runs from the grant's dispatch —
    and let the kernel run into the bug."""
    hold = pool.request() if pool is not None else None

    def script():
        yield Timeout(env, 1e-3)
        issue()
        if hold is not None:
            yield Timeout(env, 1e-3)   # a remote request has arrived by now
            assert pool.queue_len == 1
            pool.release(hold)

    env.process(script())
    with pytest.raises(EngineBug) as caught:
        env.run(until=1.0)
    frames = traceback.extract_tb(caught.value.__traceback__)
    assert frames[-1].name in ("raising", "raising_scan")
    assert frames[-1].line == "raise EngineBug(verb)"
    if pool is not None:
        assert pool.users == [] and pool.queue_len == 0


@pytest.mark.parametrize("route", ["remote", "call_local"])
@pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("verb", sorted(CASSANDRA_VERBS))
def test_cassandra_verb(verb, pooled, route):
    env, cluster, client, cnode = _cassandra(pooled)
    engine_verb, handler, payload = CASSANDRA_VERBS[verb]
    setattr(cnode.tree, engine_verb, _broken(env, engine_verb))

    def issue():
        if route == "remote":
            cluster.call_async(client, cnode.node, verb, payload,
                               timeout=0.5)
        else:
            cluster.call_local(getattr(cnode, handler), payload)

    _run_to_the_bug(env, cnode.replica_pool, issue)


@pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("verb", ["rs.put", "rs.get", "rs.scan"])
def test_hbase_verb(verb, pooled):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    hbase = HBaseCluster(cluster, HBaseSpec(
        replication=2, regions_per_server=1, **(POOL if pooled else {})))
    region = hbase.region_for_token(token_of(KEY))
    rs = hbase.regionservers[hbase.master.assignment[region.region_id]]
    engine_verb = verb[3:]
    setattr(region.tree, engine_verb, _broken(env, engine_verb))
    payload = {"rs.put": (region.region_id, KEY, "v", 100, 1.0),
               "rs.get": (region.region_id, KEY),
               "rs.scan": (region.region_id, KEY, 5)}[verb]

    def issue():
        cluster.call_async(hbase.master_node, rs.node, verb, payload,
                           timeout=0.5)

    _run_to_the_bug(env, rs.handler_pool, issue)
