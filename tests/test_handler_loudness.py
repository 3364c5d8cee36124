"""A bug in a callback is as loud as a bug in a process.

Replica verbs are chains of callbacks (the transport's ``AsyncCall``,
the bounded stage's ``Served``), and a chain decides for itself what to
do with an exception.  For every registered verb, behind a bounded pool
and without one, over the wire and through ``call_local``: an exception
that is not a :class:`ModelledFailure`, raised by the storage engine
once the request is past admission, stops ``env.run()`` with a traceback
that names the raising line — and leaves the pool with no holder.  So
does one raised inside the engine's scan itself, where it collects its
rows from a callback.

The same holds for the chains that hang on a message leg, whose
subscriber runs from the leg's timeout dispatch: an HDFS pipeline hop
(``_PipelineWrite._step``), a WAL round's ack (``_Round._acked``), an
RPC's response (``AsyncCall._responded``), and the receive half of a
leg booked on arrival (``Cluster._land``).

And for the callers that wait on one ``AsyncCall`` and raise its
failure themselves — the Cassandra session's coordinator call, the HBase
client's region lookup, the DFS client: a bug in the handler they wait
on reaches ``env.run()`` through them, once, and no retry loop takes it
for a modelled failure.

And for a coordinated Cassandra request, which is callbacks on its
replica calls: a bug where it goes on after a wait and a replica
breaking before anyone subscribed to its call both stop the run.  A
request that ends in a modelled failure inside the verb call, with
nobody waiting for the answer, does not: that failure is the call's
value, as every :class:`ModelledFailure` is.
"""

import traceback

import pytest

from repro.cassandra import coordinator
from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.config import GeoConfig
from repro.cluster.geo import GeoCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.hdfs.block import DfsFile
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.pipeline import pipeline_write
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment, Event, Timeout, _finish
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec
from repro.storage.sstable import SSTable
from tests.conftest import build_wal

pytestmark = pytest.mark.hashseed

KEY = key_for_index(3)
POOL = {"handler_slots": 1, "max_handler_queue": 2}


class EngineBug(Exception):
    """Deliberately not a ModelledFailure."""


def _broken(env, verb):
    """Stand-in for ``LsmTree.<verb>``: a put or a get raises when
    called; a scan returns its event and fails it from the callback that
    would have collected its rows, as the engine's scan does."""
    def raising(*args, **kwargs):
        raise EngineBug(verb)

    def failing_scan(*args, **kwargs):
        scan = Event(env)

        def collect(_wait):
            try:
                raising()
            except EngineBug as bug:
                _finish(scan, False, bug)

        Timeout(env, 1e-4, None, collect)
        return scan

    return failing_scan if verb == "scan" else raising


def _counted(verb):
    """A stand-in raising on every call, and the list of its calls."""
    calls = []

    def raising(*args, **kwargs):
        calls.append(args)
        raise EngineBug(verb)

    return raising, calls


def _cassandra(pooled):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=2), StorageSpec(),
        TailDefenseConfig(**(POOL if pooled else {})))
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
    assert frames[-1].name == "raising"
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
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=1),
        StorageSpec(), TailDefenseConfig(**(POOL if pooled else {})))
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


@pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])
@pytest.mark.parametrize("db", ["cassandra", "hbase"])
def test_scan_collect_step(db, pooled, monkeypatch):
    """The engine's own scan, with a bug where it walks the runs — the
    callback that runs once the scan's CPU is done: loud, raised once,
    and the pool left with no holder."""
    raising, calls = _counted("blocks_for_range")
    monkeypatch.setattr(SSTable, "blocks_for_range", raising)
    if db == "cassandra":
        env, cluster, client, cnode = _cassandra(pooled)
        tree, node, pool = cnode.tree, cnode.node, cnode.replica_pool
        verb, payload = "c.scan", (KEY, 5)
    else:
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
        hbase = HBaseCluster(
            cluster, HBaseConfig(replication=2, regions_per_server=1),
            StorageSpec(), TailDefenseConfig(**(POOL if pooled else {})))
        region = hbase.region_for_token(token_of(KEY))
        rs = hbase.regionservers[hbase.master.assignment[region.region_id]]
        tree, node, pool = region.tree, rs.node, rs.handler_pool
        client = hbase.master_node
        verb, payload = "rs.scan", (region.region_id, KEY, 5)
    tree.ingest_run([(KEY, "v", 1.0, 100)])   # one run to walk

    def issue():
        cluster.call_async(client, node, verb, payload, timeout=0.5)

    _run_to_the_bug(env, pool, issue)
    assert len(calls) == 1


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


# -- callers that raise their call's failure themselves --------------------

SESSION_OPS = {
    "c.coord_write": lambda session: session.insert(KEY, "v", 100),
    "c.coord_read": lambda session: session.read(KEY),
    "c.coord_scan": lambda session: session.scan(KEY, 5),
}


@pytest.mark.parametrize("verb", sorted(SESSION_OPS))
def test_coordinator_verb_through_the_session(verb):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=2), StorageSpec(),
        TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node, retries=1)
    raising, calls = _counted(verb)
    for cnode in cassandra.nodes.values():
        # Every coordinated operation looks its replicas up first.
        cnode.coordinator._alive_replicas = raising

    def script():
        yield Timeout(env, 1e-3)
        yield from SESSION_OPS[verb](session)

    env.process(script())
    assert "_call" in _stops_at_the_bug(env)
    assert len(calls) == 1   # not retried on the next coordinator


# -- the coordinator's own callbacks --------------------------------------

#: case -> (``CassandraConfig`` fields, ``TailDefenseConfig`` fields,
#: the operation).
COORDINATED = {
    "ONE read": ({}, {}, lambda session: session.read(KEY)),
    "QUORUM read, reconciled": (
        {"read_repair_chance": 0.0}, {},
        lambda session: session.read(KEY, cl=ConsistencyLevel.QUORUM)),
    "read, repair chance": ({"read_repair_chance": 1.0}, {},
                            lambda session: session.read(KEY)),
    "hedged read": ({"read_repair_chance": 0.0}, {"hedge": "0ms"},
                    lambda session: session.read(KEY)),
    "ONE write": ({}, {}, lambda session: session.insert(KEY, "w", 100)),
    "scan": ({}, {}, lambda session: session.scan(KEY, 5)),
}


@pytest.mark.parametrize("case", sorted(COORDINATED))
def test_coordinator_callback(case):
    """A bug raised where a coordinated request goes on after a wait —
    answering it, or spawning the background repair — stops the run from
    that callback's dispatch, once, whichever replica answered first."""
    config, tail, operation = COORDINATED[case]
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=2, **config), StorageSpec(),
        TailDefenseConfig(**tail))
    session = CassandraSession(cassandra, cassandra.client_node, retries=1)
    raising, calls = _counted(case)
    newer = cassandra.nodes[cassandra.replicas_of(KEY)[1]]

    def script():
        yield from session.insert(KEY, "v", 100, cl=ConsistencyLevel.ALL)
        yield newer._handle_mutate((KEY, "v1", 100, env.now))  # a digest
        for cnode in cassandra.nodes.values():                 # mismatch
            cnode.coordinator._complete = raising
        if case == "read, repair chance":
            coordinator.background_reconcile = raising
        yield from operation(session)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator, "background_reconcile",
                      coordinator.background_reconcile)
        env.process(script())
        frames = _stops_at_the_bug(env)
    assert "_call" not in frames   # raised from the callback, not a waiter
    assert len(calls) == 1


def test_request_ending_in_the_verb_call_with_nobody_waiting():
    """An EACH_QUORUM write whose first datacenter's one replica is its
    coordinator, shedding the mutation inside the verb call: the request
    fails right there.  Its ``WriteTimeoutError`` is a modelled failure,
    so with nobody waiting for the coordinator's answer the call settles
    with it as its value, the run goes on, and the request leaves
    flight."""
    env = Environment()
    geo = GeoCluster(env, GeoConfig(
        datacenters=(("eu-west", 2), ("us-west", 2)),
        replication_per_dc=(("eu-west", 1), ("us-west", 1))), RngRegistry(5))
    cassandra = CassandraCluster(
        geo, CassandraConfig(replication=2), StorageSpec(),
        TailDefenseConfig(handler_slots=1, max_handler_queue=0))
    local = next(r for r in cassandra.replicas_of(KEY)
                 if geo.node_datacenter[r] == "eu-west")
    cassandra.nodes[local].replica_pool.request()
    call = geo.call_async(cassandra.client_node, geo.node(local),
                          "c.coord_write", (KEY, "v", 100, 0.0, "EACH_QUORUM"),
                          timeout=1.0)
    env.run(until=1.0)
    assert call.callbacks is None and call._ok
    assert type(call._value) is coordinator.WriteTimeoutError
    assert call._value.__traceback__ is None
    assert cassandra.nodes[local].coordinator.inflight == 0


def test_replica_failing_with_nobody_waiting():
    """A QUORUM read's digest replica breaking before the data read has
    answered — nobody subscribed to its call yet — stops the run from the
    request leg's dispatch."""
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=4), RngRegistry(5))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=2, read_repair_chance=0.0),
        StorageSpec(), TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node, retries=1)
    raising, calls = _counted("c.read_digest")
    digest_node = cassandra.nodes[cassandra.replicas_of(KEY)[1]].node

    def script():
        yield from session.insert(KEY, "v", 100, cl=ConsistencyLevel.ALL)
        digest_node.handlers["c.read_digest"] = raising
        yield from session.read(KEY, cl=ConsistencyLevel.QUORUM)

    env.process(script())
    assert "_arrived" in _stops_at_the_bug(env)
    assert len(calls) == 1


def test_master_locate_through_the_client():
    env, cluster = _rack()
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=1),
        StorageSpec(), TailDefenseConfig())
    client = HBaseClient(hbase, hbase.master_node)
    raising, calls = _counted("master.locate")
    hbase.master.node.cpu_work = raising
    # A stale map, every region at another server's address: the first
    # attempt is refused and the retry must look the region up.
    owners = list(client._assignment.values())
    client._assignment = dict(zip(client._assignment,
                                  owners[1:] + owners[:1]))

    def script():
        yield Timeout(env, 1e-3)
        yield from client.get(KEY)

    env.process(script())
    assert "_refresh_assignment" in _stops_at_the_bug(env)
    assert len(calls) == 1


@pytest.mark.parametrize("verb", ["nn.create", "dn.read"])
def test_hdfs_verb_through_the_client(verb):
    env, cluster = _rack(5)
    rngs = RngRegistry(9)
    datanodes = {i: DataNode(cluster.node(i)) for i in range(3)}
    namenode = NameNode(cluster.node(4), list(datanodes), rngs.stream("nn"))
    # The client's node holds no replica: every read crosses the wire.
    dfs = DfsClient(cluster, namenode, datanodes, cluster.node(3), 2,
                    rngs.stream("dfs"))
    raising, calls = _counted(verb)
    if verb == "nn.create":
        namenode.create_file = raising
        operation, caller = dfs.create("wal"), "create"
    else:
        for datanode in datanodes.values():
            datanode.node.disk.read = raising
        operation, caller = dfs.read(DfsFile("f", 2, [0, 1]), 4096), "read"

    def script():
        yield Timeout(env, 1e-3)
        yield from operation

    env.process(script())
    assert caller in _stops_at_the_bug(env)
    assert len(calls) == 1
