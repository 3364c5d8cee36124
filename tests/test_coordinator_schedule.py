"""Coordinated requests as callback chains, pinned to the processes they
replaced.

``Coordinator.handle_read`` / ``handle_write`` / ``handle_scan`` return
an event built from callbacks on the replica calls.  A process is left
only where a generator still is: the hedged race, a foreground
reconcile, the background one, EACH_QUORUM's per-datacenter waits, and
a storage read from its first block-cache miss.  Each scenario below ran unchanged at
``2a2fa1a``, where every coordinated request was a process, and printed
the completion instants, outcomes, counters and kernel-trace digest
that are its golden entry.  A callback that subscribes where the generator's
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
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.config import GeoConfig
from repro.cluster.geo import GeoCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.sim.trace import KernelTracer
from repro.storage.lsm import StorageSpec

pytestmark = pytest.mark.hashseed

KEY = key_for_index(4)
_STORE = StorageSpec(memtable_flush_bytes=64 * 1024, block_bytes=512,
                     block_cache_bytes=1 << 20)


def _ring(replication=3, read_repair_chance=0.1, **tail):
    """Five servers and the client on the default rack (seed 17), a
    tracer attached from the start."""
    env = Environment()
    tracer = KernelTracer(env)
    cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(17))
    return env, CassandraCluster(
        cluster, CassandraConfig(replication=replication,
                                 read_repair_chance=read_repair_chance),
        _STORE, TailDefenseConfig(**tail)), tracer


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
    """Hold every ``verb`` request on ``node_id`` for ``delay_s`` first
    (a generator handler: it serves remote callers only, so the stalled
    node must not coordinate the request)."""
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
    geo = GeoCluster(env, GeoConfig(
        datacenters=(("eu-west", 3), ("us-west", 3), ("ap-southeast", 3)),
        replication_per_dc=(("eu-west", 2), ("us-west", 2),
                            ("ap-southeast", 2))), RngRegistry(42))
    cassandra = CassandraCluster(
        geo, CassandraConfig(replication=3), _STORE, TailDefenseConfig())
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
    env, cassandra, tracer = _ring(read_repair_chance=0.0, hedge="5ms")
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

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_is_the_parents(name, golden):
    """The log, the counters named in ``_COUNTERS``, events dispatched,
    the kernel-trace digest."""
    golden(SCENARIOS[name]())


# -- in flight until the outcome, whatever it is --------------------------

def _ending(case):
    env, cassandra, tracer = _ring(**{
        "replica shed": {"handler_slots": 1, "max_handler_queue": 0},
        "sole replica shed": {"replication": 1, "handler_slots": 1,
                              "max_handler_queue": 0},
        "admission shed": {"max_inflight": 1},
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


#: The ways a request can end.  The second read of "admission shed"
#: finds the coordinator at its one in-flight request; "own read" sheds
#: on its coordinator's own stage, inside the handler call.
ENDINGS = ["admission shed", "each-quorum read", "ok", "replica shed",
           "sole replica shed", "replica timeout", "unavailable"]


@pytest.mark.parametrize("case", sorted(ENDINGS))
def test_inflight_returns_to_zero(case, golden):
    """Each case's log: (label, instant, outcome)."""
    golden(_ending(case))


def test_a_waiter_may_send_the_next_request_at_once():
    """A coordinator admitting one request at a time: whoever hears an
    answer finds the request out of flight already, so the next one it
    sends from that very callback is admitted, not shed."""
    env, cassandra, _ = _ring(max_inflight=1)
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
