"""The storage engine's scan as callbacks, pinned to the process it was.

``LsmTree.scan`` returns its completion event, and both engines' scan
verbs hand that event back: reserve CPU, collect the rows at that
instant, reserve the per-entry CPU, finish — a process only from the
first block the cache does not hold, over the run list the scan started
on.  The drivers' operations return their retry loop's generator, and
the HBase client races a hedge from inside that loop.  Each scenario
below ran unchanged at ``cc58367``, where every scan was a process (and
an HBase attempt a generator of its own), and printed the completion
instants, the rows, the serving tree's counters, the events dispatched
and the kernel-trace digest that are its golden entry.  A callback that
subscribes where the generator's ``yield`` subscribed keeps the
schedule, sequence numbers included.

Rows are pinned as ``(count, SHA-256 prefix of their repr)``; a
refusal as its type's name.
"""

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.sim.trace import KernelTracer
from repro.storage.lsm import StorageSpec
from repro.ycsb.db import CassandraBinding, HBaseBinding

pytestmark = pytest.mark.hashseed

KEY = key_for_index(4)
#: Small memtables and blocks, a cache that holds everything, and a
#: compaction once three runs exist.
_STORE = StorageSpec(memtable_flush_bytes=2048, block_bytes=512,
                     block_cache_bytes=1 << 20, compaction_min_batch=3)


@dataclass
class _Deployment:
    env: Environment
    tracer: KernelTracer
    cluster: Cluster
    binding: Any
    #: The tree that serves ``KEY``, its node, and that node's pool.
    tree: Any
    node: Any
    pool: Any
    verb: str
    #: ``payload(start_key, limit, *deadline)`` for ``verb``.
    payload: Any
    client_node: Any
    hbase: Optional[HBaseCluster] = None


def _deploy(db, **tail):
    """Four servers and a client or master (seed 17), RF 2, a tracer
    attached from the start."""
    env = Environment()
    tracer = KernelTracer(env)
    cluster = Cluster(env, ClusterSpec(n_nodes=5), RngRegistry(17))
    if db == "cassandra":
        cassandra = CassandraCluster(cluster, CassandraConfig(replication=2),
                                     _STORE, TailDefenseConfig(**tail))
        cnode = cassandra.nodes[cassandra.replicas_of(KEY)[0]]
        return _Deployment(
            env, tracer, cluster,
            CassandraBinding(CassandraSession(cassandra,
                                              cassandra.client_node)),
            cnode.tree, cnode.node, cnode.replica_pool, "c.scan",
            lambda start, limit, *deadline: (start, limit, *deadline),
            cassandra.client_node)
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2, regions_per_server=2), _STORE,
        TailDefenseConfig(**tail))
    region = hbase.region_for_token(token_of(KEY))
    rs = hbase.regionservers[hbase.master.assignment[region.region_id]]
    return _Deployment(
        env, tracer, cluster,
        HBaseBinding(HBaseClient(hbase, hbase.master_node)),
        region.tree, rs.node, rs.handler_pool, "rs.scan",
        lambda start, limit, *deadline: (region.region_id, start, limit,
                                         *deadline),
        hbase.master_node, hbase)


def _load(dep, n_keys=60, size=300):
    """Write ``n_keys`` records through the driver, one after another,
    then let the cluster idle for a second (flushes and compactions
    land)."""
    def script():
        for i in range(n_keys):
            yield from dep.binding.write(key_for_index(i), f"v{i}", size)
        yield dep.env.timeout(1.0)

    dep.env.run(until=dep.env.process(script()))


def _rows(rows):
    if isinstance(rows, Exception):
        return type(rows).__name__
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _drive_scan(dep, log, label, start_key, limit):
    """One scan through the driver; ``(label, instant, rows)`` joins
    ``log`` when it returns."""
    def script():
        rows = yield from dep.binding.scan(start_key, limit, 100)
        log.append((label, dep.env.now, _rows(rows)))

    dep.env.process(script())


def _verb_scan(dep, log, label, start_key, limit, deadline=None):
    """One scan verb straight to the tree's node, as a coordinator or a
    region client sends it; ``(label, instant, outcome)`` joins ``log``
    when it settles."""
    env = dep.env
    payload = dep.payload(start_key, limit,
                          *(() if deadline is None else (deadline,)))

    def note(call):
        log.append((label, env.now, _rows(call._value)))

    dep.cluster.call_async(dep.client_node, dep.node, dep.verb, payload,
                           request_bytes=70, response_bytes=500,
                           timeout=1.0, deadline=deadline
                           ).callbacks.append(note)


def _settled(dep, log):
    """What a scenario pins once the cluster has drained."""
    dep.env.run(until=dep.env.now + 2.0)
    stats = dep.tree.stats
    return (log, tuple(stats[name] for name in (
        "scans", "block_reads", "flushes", "compactions")),
        dep.env.processed_events, dep.tracer.digest())


# -- the scenarios --------------------------------------------------------

def _resident(db):
    """Three scans at one instant, every block they touch cached."""
    dep = _deploy(db)
    _load(dep)
    log = []
    for label, index, limit in (("a", 4, 5), ("b", 17, 10), ("c", 33, 3)):
        _drive_scan(dep, log, label, key_for_index(index), limit)
    return _settled(dep, log)


class _GatedMedium:
    """The tree's own medium, with every block read held until
    ``gate`` fires."""

    def __init__(self, env, medium):
        self.medium = medium
        self.gate = Event(env)

    def append_log(self, size):
        return self.medium.append_log(size)

    def read_block(self, size, priority, handle=None):
        yield self.gate
        yield from self.medium.read_block(size, priority, handle)

    def read_run(self, size, handle=None):
        return self.medium.read_run(size, handle)

    def write_run(self, size):
        return self.medium.write_run(size)


def _parked(db):
    """Two runs holding ``KEY`` and its neighbours, the older one's
    blocks out of the cache: the scan collects the newer run, misses on
    the older and parks there.  A third run is flushed meanwhile, and
    the compaction it triggers lands; then the block read goes on.  The
    scan answers from the runs it started on."""
    dep = _deploy(db)
    env, tree = dep.env, dep.tree
    medium = tree.medium = _GatedMedium(env, tree.medium)

    def write_run(version):
        """``KEY`` at ``version`` plus filler: one memtable's worth."""
        for i in range(21):
            key = KEY if i == 0 else f"{KEY}/{version}-{i:02d}"
            yield tree.put(key, f"v{version}", 100, env.now)

    for version in (1, 2):
        env.run(until=env.process(write_run(version)))
    env.run(until=env.now + 1.0)
    assert tree.n_sstables == 2
    tree.cache.evict_sstable(tree.sstables[1].sstable_id)
    log = []
    _verb_scan(dep, log, "parked", KEY, 5)
    env.run(until=env.now + 1e-3)
    assert log == [] and tree.stats["block_reads"] == 0
    env.run(until=env.process(write_run(3)))
    env.run(until=env.now + 1.0)
    assert tree.stats["compactions"] == 1 and tree.n_sstables == 1
    log.append(("gate", env.now, None))
    medium.gate.succeed()
    return _settled(dep, log)


def _pooled(db):
    """One handler slot and one queue place, the slot held out of band:
    the first scan queues with a 2 ms budget and expires there, the
    second is shed, the third queues with no deadline and is served once
    the slot comes back at 5 ms."""
    dep = _deploy(db, handler_slots=1, max_handler_queue=1)
    _load(dep)
    env, pool = dep.env, dep.pool
    held = pool.request()
    log = []
    start = env.now
    _verb_scan(dep, log, "expires", KEY, 5, deadline=start + 2e-3)
    _verb_scan(dep, log, "shed", KEY, 5)
    env.run(until=start + 3e-3)
    _verb_scan(dep, log, "served", KEY, 5)
    env.run(until=start + 5e-3)
    pool.release(held)
    return _settled(dep, log)


def _region_boundary():
    """An HBase scan from the last key of its region: one row there, the
    rest from the regions after it."""
    dep = _deploy("hbase")
    _load(dep)
    region = dep.hbase.region_for_token(token_of(KEY))
    last = max(key for key in map(key_for_index, range(60))
               if region.contains(token_of(key)))
    log = []
    _drive_scan(dep, log, "across", last, 6)
    return _settled(dep, log)


def _hedged():
    """A hedged HBase scan whose primary stalls a second at the region
    server: after 5 ms the client looks the region up again and sends the
    spare, which wins; the primary's scan drains server-side and its
    call settles with its own late answer."""
    dep = _deploy("hbase", hedge="5ms")
    _load(dep)
    handlers = dep.node.handlers
    plain = handlers["rs.scan"]

    def stalled(payload):
        yield dep.env.timeout(1.0)
        return (yield from plain(payload))

    def stall_first(payload):
        handlers["rs.scan"] = plain
        return stalled(payload)

    handlers["rs.scan"] = stall_first
    log = []
    _drive_scan(dep, log, "hedged", KEY, 5)
    return _settled(dep, log)


SCENARIOS = {
    "cassandra-resident": lambda: _resident("cassandra"),
    "hbase-resident": lambda: _resident("hbase"),
    "cassandra-parked": lambda: _parked("cassandra"),
    "hbase-parked": lambda: _parked("hbase"),
    "cassandra-pooled": lambda: _pooled("cassandra"),
    "hbase-pooled": lambda: _pooled("hbase"),
    "hbase-region-boundary": _region_boundary,
    "hbase-hedged": _hedged,
}

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_is_the_parents(name, golden):
    """The log, the serving tree's scans / block reads / flushes /
    compactions, events dispatched, the kernel-trace digest."""
    golden(SCENARIOS[name]())

