"""Coordinated requests as callback chains, pinned to the processes they
replaced.

``Coordinator.handle_read`` / ``handle_write`` / ``handle_scan`` return
an event built from callbacks on the replica calls.  A process is left
only where a generator still is: the hedged race, a foreground
reconcile, the background one, EACH_QUORUM's per-datacenter waits, and
a storage read from its first block-cache miss.  Each scenario below ran unchanged at
``2a2fa1a``, where every coordinated request was a process, and printed
the completion instants, outcomes, counters and kernel-trace digest
pinned beside it.  A callback that subscribes where the generator's
``yield`` subscribed keeps the schedule, sequence numbers included.

Then ``Coordinator.inflight`` after every way a request can end: an
answer, a replica's shed (a sole replica's inside the verb call), a
replica's timeout, too few live replicas, the coordinator's own
admission shed and an EACH_QUORUM read — with the outcome each had at
``2a2fa1a`` — and that a request is out of flight before anyone hears
its outcome, as when a generator's ``finally`` ran.
"""

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster, CassandraSpec
from repro.cluster.geo import GeoCluster, GeoSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.sim.trace import KernelTracer
from repro.storage.lsm import StorageSpec

KEY = key_for_index(4)
_STORE = StorageSpec(memtable_flush_bytes=64 * 1024, block_bytes=512,
                     block_cache_bytes=1 << 20)


def _ring(replication=3, **spec):
    """Five servers and the client on the default rack (seed 17), a
    tracer attached from the start."""
    env = Environment()
    tracer = KernelTracer(env)
    cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(17))
    return env, CassandraCluster(cluster, CassandraSpec(
        replication=replication, storage=_STORE, **spec)), tracer


def _seed(env, cassandra, keys):
    """Write ``keys`` at ALL, then let the ring idle for a second."""
    session = CassandraSession(cassandra, cassandra.client_node)

    def script():
        for key in keys:
            yield from session.insert(key, "v0", 100,
                                      cl=ConsistencyLevel.ALL)
        yield env.timeout(1.0)

    env.run(until=env.process(script()))


def _diverge(env, cassandra, key):
    """Give the key's second replica a newer version than the others."""
    stale = cassandra.nodes[cassandra.replicas_of(key)[1]]
    env.run(until=stale._handle_mutate((key, "v1", 100, env.now)))


def _placement(cassandra, key):
    """(the key's replicas, the first server that holds none of it)."""
    replicas = cassandra.replicas_of(key)
    return replicas, next(node.node_id for node in cassandra.server_nodes
                          if node.node_id not in replicas)


def _coordinate(cassandra, log, label, node_id, verb, payload):
    """One coordinator RPC from the client, as the session sends it;
    ``(label, instant, outcome)`` joins ``log`` when it settles."""
    cluster = cassandra.cluster
    env = cluster.env

    def note(call):
        value = call._value
        if not call._ok:
            call._defused = True   # a refusal the session would raise
        log.append((label, env.now, type(value).__name__
                    if isinstance(value, Exception) else value))

    cluster.call_async(cassandra.client_node, cluster.node(node_id), verb,
                       payload, request_bytes=80, response_bytes=130,
                       timeout=10.0).callbacks.append(note)


def _stall(env, cassandra, node_id, verb, delay_s):
    """Hold every ``verb`` request on ``node_id`` for ``delay_s`` first."""
    handlers = cassandra.nodes[node_id].node.handlers
    plain = handlers[verb]

    def slow(payload):
        yield env.timeout(delay_s)
        return (yield from plain(payload))

    handlers[verb] = slow


_COUNTERS = ("reads", "writes", "scans", "read_repairs",
             "background_repairs", "repair_mutations", "hints_stored",
             "hedged_reads", "hedge_wins", "admission_sheds")


def _settled(env, cassandra, tracer, log):
    """What a scenario pins once the ring has drained."""
    env.run(until=env.now + 5.0)
    stats = cassandra.total_stats()
    assert all(cnode.coordinator.inflight == 0
               for cnode in cassandra.nodes.values())
    return (log, tuple(stats[name] for name in _COUNTERS),
            env.processed_events, tracer.digest())


# -- the re-wired paths, against 2a2fa1a ----------------------------------

def _one_reads(chance):
    """Two ONE reads at one instant of a key whose second replica is
    newer: one coordinated off the replicas, one by the data replica."""
    env, cassandra, tracer = _ring(read_repair_chance=chance)
    _seed(env, cassandra, [KEY])
    _diverge(env, cassandra, KEY)
    replicas, outsider = _placement(cassandra, KEY)
    log = []
    for label, node_id in (("remote", outsider), ("local", replicas[0])):
        _coordinate(cassandra, log, label, node_id, "c.coord_read",
                    (KEY, "ONE", 100))
    return _settled(env, cassandra, tracer, log)


def _quorum_reads():
    """The same two reads at QUORUM: the newer replica's digest is one
    the level waits for, so both reconcile before they answer."""
    env, cassandra, tracer = _ring(read_repair_chance=0.0)
    _seed(env, cassandra, [KEY])
    _diverge(env, cassandra, KEY)
    replicas, outsider = _placement(cassandra, KEY)
    log = []
    for label, node_id in (("remote", outsider), ("local", replicas[0])):
        _coordinate(cassandra, log, label, node_id, "c.coord_read",
                    (KEY, "QUORUM", 100))
    return _settled(env, cassandra, tracer, log)


def _writes(cl):
    """Three writes of one key at one instant, through three
    coordinators: off the replicas, the first and the second replica."""
    env, cassandra, tracer = _ring()
    _seed(env, cassandra, [KEY])
    replicas, outsider = _placement(cassandra, KEY)
    log = []
    for i, node_id in enumerate((outsider, replicas[0], replicas[1])):
        _coordinate(cassandra, log, f"w{i}", node_id, "c.coord_write",
                    (KEY, f"w{i}", 100, env.now, cl))
    return _settled(env, cassandra, tracer, log)


def _each_quorum_writes():
    """Two EACH_QUORUM writes across three datacenters, two replicas in
    each: every leg out of the client's datacenter lands on arrival."""
    env = Environment()
    tracer = KernelTracer(env)
    geo = GeoCluster(env, GeoSpec(datacenters={
        "eu-west": 3, "us-west": 3, "ap-southeast": 3}), RngRegistry(42))
    cassandra = CassandraCluster(geo, CassandraSpec(
        replication=3, storage=_STORE, replication_per_dc={
            "eu-west": 2, "us-west": 2, "ap-southeast": 2}))
    _seed(env, cassandra, [KEY])
    replicas = cassandra.replicas_of(KEY)
    log = []
    for i, node_id in enumerate((0, replicas[0])):
        _coordinate(cassandra, log, f"w{i}", node_id, "c.coord_write",
                    (KEY, f"w{i}", 100, env.now, "EACH_QUORUM"))
    return _settled(env, cassandra, tracer, log)


def _scans(pooled):
    """Scans served by their coordinator's own range, and ones it has to
    forward to the start token's main replica, all at one instant.
    Pooled, the main replica's one slot is held for a millisecond: the
    first scan to arrive queues in the one place, the others are shed."""
    env, cassandra, tracer = _ring(**(
        {"handler_slots": 1, "max_handler_queue": 1} if pooled else {}))
    _seed(env, cassandra, [key_for_index(i) for i in range(12)])
    replicas, outsider = _placement(cassandra, KEY)
    pool = cassandra.nodes[replicas[0]].replica_pool
    held = pool.request() if pooled else None
    log = []
    for label, node_id in (("local", replicas[0]), ("remote", outsider),
                           ("local again", replicas[0]),
                           ("remote again", outsider)):
        _coordinate(cassandra, log, label, node_id, "c.coord_scan",
                    (KEY, 5, "ONE", 100))
    if pooled:
        env.run(until=env.now + 1e-3)
        pool.release(held)
    return _settled(env, cassandra, tracer, log)


def _hedged_reads():
    """Rapid read protection with a stalled data replica: one read whose
    spare is remote, one whose spare is its coordinator's own node."""
    env, cassandra, tracer = _ring(read_repair_chance=0.0,
                                   speculative_retry="5ms")
    _seed(env, cassandra, [KEY])
    replicas, outsider = _placement(cassandra, KEY)
    _stall(env, cassandra, replicas[0], "c.read_data", 1.0)
    log = []
    for label, node_id in (("remote", outsider), ("local", replicas[1])):
        _coordinate(cassandra, log, label, node_id, "c.coord_read",
                    (KEY, "ONE", 100))
    return _settled(env, cassandra, tracer, log)


SCENARIOS = {
    "one-read": lambda: _one_reads(0.0),
    "one-read-repair-chance": lambda: _one_reads(1.0),
    "quorum-read-reconciles": _quorum_reads,
    "one-write": lambda: _writes("ONE"),
    "quorum-write": lambda: _writes("QUORUM"),
    "each-quorum-write": _each_quorum_writes,
    "scans": lambda: _scans(False),
    "pooled-scans": lambda: _scans(True),
    "hedged-reads": _hedged_reads,
}

#: The rows every successful scan answers with.
ROWS = [("user3232700585171816769", "v0", 0.0023616737956341323),
        ("user4582684765186151662", "v0", 0.006206026207425558),
        ("user5465015992139406178", "v0", 0.003939625000477823),
        ("user7697331399106995587", "v0", 0.0034158573153036595)]

#: What each scenario printed at ``2a2fa1a``: the log, the counters
#: named in ``_COUNTERS``, events dispatched, the kernel-trace digest.
PINNED = {
    "each-quorum-write": (
        [("w0", 1.7689981962848, True),
         ("w1", 1.776072666676867, True)],
        (0, 3, 0, 0, 0, 0, 0, 0, 0, 0), 198,
        "0908f68f00c65a56db90f9220c090962"
        "73077daf3d79d8141aad1dde1b340aa4"),
    "hedged-reads": (
        [("local", 1.0057075213603375, ("v0", 0.0)),
         ("remote", 1.0059158337414624, ("v0", 0.0))],
        (2, 1, 0, 0, 0, 0, 0, 2, 2, 0), 87,
        "6670ea7f5984497101e9964be4bfb481"
        "d78e8e648b17cac9fb65352e1689f16d"),
    "one-read": (
        [("local", 1.0007442094824004, ("v0", 0.0)),
         ("remote", 1.0008813765941127, ("v0", 0.0))],
        (2, 1, 0, 0, 0, 0, 0, 0, 0, 0), 74,
        "dba42e505b380299f17e6cff23ebcf32"
        "75635a78841035a5d0551dcc532c13f8"),
    "one-read-repair-chance": (
        [("local", 1.0007533622258882, ("v0", 0.0)),
         ("remote", 1.000853081778736, ("v0", 0.0))],
        (2, 1, 0, 0, 2, 4, 0, 0, 0, 0), 120,
        "e9839a6763a124b99b8a0a2bb03e89d7"
        "d894c844bebf602cbbc13df3698d9303"),
    "one-write": (
        [("w2", 1.0006899054141212, True),
         ("w1", 1.0007334701983353, True),
         ("w0", 1.0008924527143312, True)],
        (0, 4, 0, 0, 0, 0, 0, 0, 0, 0), 100,
        "4160170f809ca9ec273bec4dc8ee6179"
        "9424805b9c4f7a03b3e5aad85c7bd67b"),
    "pooled-scans": (
        [("local again", 1.0069558290977612, "Overloaded"),
         ("remote", 1.0069624179920635, "Overloaded"),
         ("remote again", 1.007015237715243, "Overloaded"),
         ("local", 1.0078642153353208, ROWS)],
        (0, 12, 4, 0, 0, 0, 0, 0, 0, 0), 190,
        "2722bad87d54ae8086b8b378c7a7f06c"
        "dc3bdcfff08ff74f4297b4f7d967e81e"),
    "quorum-read-reconciles": (
        [("local", 1.001193828699662, ("v1", 1.000510939134286)),
         ("remote", 1.0012373239214096, ("v1", 1.000510939134286))],
        (2, 1, 0, 2, 0, 2, 0, 0, 0, 0), 95,
        "3080b0005740e4f663bdc6d4e59017d6"
        "6d991670ff54bb0cb3dcc72b4566876f"),
    "quorum-write": (
        [("w2", 1.000868845017195, True),
         ("w0", 1.0008714945898445, True),
         ("w1", 1.0009214371792665, True)],
        (0, 4, 0, 0, 0, 0, 0, 0, 0, 0), 100,
        "496f339bd8b6ef30e17cfbb042b0ad9a"
        "f90972e8a2260ef86d71988730b34b1c"),
    "scans": (
        [("local", 1.0069595208712767, ROWS),
         ("local again", 1.0070502010390718, ROWS),
         ("remote", 1.0071094829142058, ROWS),
         ("remote again", 1.0071740534813547, ROWS)],
        (0, 12, 4, 0, 0, 0, 0, 0, 0, 0), 200,
        "e9f59a936d3bd34831cfa2d6790061fb"
        "6690170271336f0d0d1c632512e934e4"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_is_the_parents(name):
    assert SCENARIOS[name]() == PINNED[name]


# -- in flight until the outcome, whatever it is --------------------------

def _ending(case):
    env, cassandra, tracer = _ring(**{
        "replica shed": {"handler_slots": 1, "max_handler_queue": 0},
        "sole replica shed": {"replication": 1, "handler_slots": 1,
                              "max_handler_queue": 0},
        "admission shed": {"coordinator_max_inflight": 1},
    }.get(case, {}))
    _seed(env, cassandra, [KEY])
    replicas, outsider = _placement(cassandra, KEY)
    log = []
    read = (KEY, "ONE", 100)
    write = (KEY, "x", 100, env.now, "ONE")
    if case == "replica shed":
        held = [cassandra.nodes[r].replica_pool.request() for r in replicas]
        _coordinate(cassandra, log, "read", outsider, "c.coord_read", read)
        _coordinate(cassandra, log, "own read", replicas[0], "c.coord_read",
                    read)
        _coordinate(cassandra, log, "write", outsider, "c.coord_write",
                    write)
    elif case == "sole replica shed":
        # Every replica call is settled inside the verb call: the request
        # ends there too, and the handler raises its outcome.
        cassandra.nodes[replicas[0]].replica_pool.request()
        _coordinate(cassandra, log, "read", replicas[0], "c.coord_read", read)
        _coordinate(cassandra, log, "write", replicas[0], "c.coord_write",
                    write)
    elif case == "replica timeout":
        for r in replicas:
            _stall(env, cassandra, r, "c.read_data", 5.0)
            _stall(env, cassandra, r, "c.mutate", 5.0)
        _coordinate(cassandra, log, "read", outsider, "c.coord_read", read)
        _coordinate(cassandra, log, "write", outsider, "c.coord_write",
                    write)
    elif case == "unavailable":
        for r in replicas[1:]:
            cassandra.cluster.kill(r)
        _coordinate(cassandra, log, "read", outsider, "c.coord_read",
                    (KEY, "ALL", 100))
        _coordinate(cassandra, log, "write", outsider, "c.coord_write",
                    (KEY, "x", 100, env.now, "QUORUM"))
    elif case == "admission shed":
        _coordinate(cassandra, log, "first", outsider, "c.coord_read", read)
        _coordinate(cassandra, log, "second", outsider, "c.coord_read",
                    read)
    elif case == "each-quorum read":
        _coordinate(cassandra, log, "read", outsider, "c.coord_read",
                    (KEY, "EACH_QUORUM", 100))
    else:
        _coordinate(cassandra, log, "read", outsider, "c.coord_read", read)
        _coordinate(cassandra, log, "write", outsider, "c.coord_write",
                    write)
    return _settled(env, cassandra, tracer, log)[0]


#: Each case's log at ``2a2fa1a``: (label, instant, outcome).  The
#: second read of "admission shed" finds the coordinator at its one
#: in-flight request; "own read" sheds on its coordinator's own stage,
#: inside the handler call.
ENDINGS = {
    "admission shed": [
        ("second", 1.000639475711211, "Overloaded"),
        ("first", 1.0008920647161754, ("v0", 0.0))],
    "each-quorum read": [
        ("read", 1.0006276135107455, "ValueError")],
    "ok": [
        ("read", 1.0008635761028846, ("v0", 0.0)),
        ("write", 1.0008709322766693, True)],
    "replica shed": [
        ("own read", 1.000639475711211, "Overloaded"),
        ("read", 1.0007291507007385, "Overloaded"),
        ("write", 1.0007507436476113, "Overloaded")],
    "sole replica shed": [
        ("read", 1.000597770446811, "Overloaded"),
        ("write", 1.000601063592294, "Overloaded")],
    "replica timeout": [
        ("read", 3.0625, "ReadTimeoutError"),
        ("write", 3.0625, "WriteTimeoutError")],
    "unavailable": [
        ("read", 1.0006276135107455, "UnavailableError"),
        ("write", 1.000639475711211, "UnavailableError")],
}


@pytest.mark.parametrize("case", sorted(ENDINGS))
def test_inflight_returns_to_zero(case):
    assert _ending(case) == ENDINGS[case]


def test_a_waiter_may_send_the_next_request_at_once():
    """A coordinator admitting one request at a time: whoever hears an
    answer finds the request out of flight already, so the next one it
    sends from that very callback is admitted, not shed."""
    env, cassandra, _ = _ring(coordinator_max_inflight=1)
    _seed(env, cassandra, [KEY])
    _, outsider = _placement(cassandra, KEY)
    coordinator = cassandra.nodes[outsider].coordinator
    answers = []

    def chain(event):
        answers.append(event.value)
        if len(answers) < 3:
            coordinator.handle_read((KEY, "ONE", 100)).callbacks.append(chain)

    coordinator.handle_write((KEY, "x", 100, env.now, "ONE")
                             ).callbacks.append(chain)
    env.run(until=env.now + 1.0)
    assert answers[0] is True and [a[0] for a in answers[1:]] == ["x", "x"]
    assert coordinator.stats["admission_sheds"] == coordinator.inflight == 0
