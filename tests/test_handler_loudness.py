"""A bug in a callback is as loud as a bug in a process.

Replica verbs are chains of callbacks (the transport's ``_RoundTrip``,
the bounded stage's ``Served``), and a chain decides for itself what to
do with an exception.  For every registered verb, behind a bounded pool
and without one, over the wire and through ``call_local``: an exception
that is not a :class:`ModelledFailure`, raised by the storage engine
once the request is past admission, stops ``env.run()`` with a traceback
that names the raising line — and leaves the pool with no holder.

The same holds for the chains that hang on a message leg, whose
subscriber runs from the leg's timeout dispatch: an HDFS pipeline hop
(``_PipelineWrite._step``), a WAL round's ack (``_Round._acked``), an
RPC's response (``_RoundTrip._responded``), and the receive half of a
leg booked on arrival (``Cluster._land``).
"""

import traceback

import pytest

from repro.cassandra.deployment import CassandraCluster, CassandraSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.hbase.deployment import HBaseCluster, HBaseSpec
from repro.hdfs.datanode import DataNode
from repro.hdfs.pipeline import pipeline_write
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment, Timeout
from repro.sim.rng import RngRegistry
from tests.conftest import build_wal

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
    _stops_at_the_bug(env)
    if pool is not None:
        assert pool.users == [] and pool.queue_len == 0


def _stops_at_the_bug(env):
    """``env.run()`` raises the bug, its traceback ending at the raising
    line; returns the names of the frames it passed through."""
    with pytest.raises(EngineBug) as caught:
        env.run(until=1.0)
    frames = traceback.extract_tb(caught.value.__traceback__)
    assert frames[-1].name in ("raising", "raising_scan")
    assert frames[-1].line == "raise EngineBug(verb)"
    return [frame.name for frame in frames]


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


# -- chains that hang on a message leg ------------------------------------

def _rack(n_nodes=4):
    env = Environment()
    return env, Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(5))


@pytest.mark.parametrize("on_arrival", [False, True],
                         ids=["in-rack", "on-arrival"])
def test_leg_subscriber(on_arrival):
    env, cluster = _rack(2)
    cluster.leg(cluster.node(0), cluster.node(1), 1_000, 0.0, 2.5e-5,
                on_arrival, callback=_broken(env, "subscriber"))
    assert ("_finish" in _stops_at_the_bug(env)) == on_arrival


def test_landing_step():
    env, cluster = _rack(2)
    dst = cluster.node(1)
    dst.reserve_cpu = _broken(env, "reserve_cpu")
    cluster.leg(cluster.node(0), dst, 1_000, 0.0, 2.5e-5, on_arrival=True)
    assert "_land" in _stops_at_the_bug(env)
    assert dst.nic.bytes_received == 1_000   # it had arrived


@pytest.mark.parametrize("size", [3_000, 200_000],
                         ids=["one-packet", "chunks-on-arrival"])
def test_pipeline_step(size, monkeypatch):
    env, cluster = _rack()
    datanodes = [DataNode(cluster.node(i)) for i in (1, 2)]
    monkeypatch.setattr(DataNode, "receive_packet",
                        _broken(env, "receive_packet"))
    pipeline_write(cluster, cluster.node(0), datanodes, size)
    assert "_step" in _stops_at_the_bug(env)


def test_wal_round_ack():
    env, _, wal = build_wal()
    wal.append(100)
    wal._in_flight.release = _broken(env, "release")
    assert "_acked" in _stops_at_the_bug(env)


def test_round_trip_response():
    env, cluster = _rack(2)
    a, b = cluster.nodes
    b.register("echo", lambda payload: Timeout(env, 1e-5, payload))
    call = cluster.call_async(a, b, "echo", 7, timeout=0.5)
    call.callbacks.append(_broken(env, "waiter"))
    assert "_responded" in _stops_at_the_bug(env)
