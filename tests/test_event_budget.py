"""Kernel events and processes per operation, gated on counters that no
host can move.

Every message leg (``Cluster.leg``), every verb's fixed handler CPU and
every LSM read walk costs one kernel event, and an RPC costs no process
unless its handler has to queue or block.  These tests keep it so:
ceilings on events and on ``Process`` constructions per operation for
two small cells, the exact event count and completion instant of one
HDFS pipeline write, and — because fusing stages may move *when* work is
booked but never *how much* — the CPU seconds, NIC bytes and messages a
fixed script costs, and the simulated output of a cache-resident cell,
against values recorded from the commit before the fusion (``6dbf6af``).

The second half replays the paths that still need a process — block
misses, a synchronous log, bounded pools, a reopening region, silent
callees — against the values and simulated instants the same scripts
produced at ``353f292``, where every RPC was a generator process.
"""

from dataclasses import replace

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster, CassandraSpec
from repro.cluster.topology import AsyncCall, Cluster, ClusterSpec
from repro.core.config import default_stress_config, scaled_stress_storage
from repro.core.experiment import ExperimentSession, summarize_run
from repro.hbase.client import HBaseClient
from repro.hbase.deployment import HBaseCluster, HBaseSpec
from repro.hbase.regionserver import NotServingRegion
from repro.hdfs.datanode import PACKET_CPU_S, DataNode
from repro.hdfs.pipeline import ACK_BYTES, pipeline_write
from repro.keyspace import key_for_index, token_of
from repro.sim.kernel import Environment, Interrupt, Process, Timeout
from repro.sim.resources import Overloaded
from repro.sim.rng import RngRegistry
from repro.storage.cache import BlockCache
from repro.storage.lsm import LocalDiskMedium, LsmTree, StorageSpec
from tests.conftest import flat_cluster


def _small_cell(db: str, storage: StorageSpec):
    """RF 3 (Cassandra at ONE/ONE), ``read_update``, fault-free."""
    config = default_stress_config(db, "read_update", replication=3, seed=7)
    return replace(config, record_count=400, operation_count=1_500,
                   n_threads=8, n_nodes=5, settle_s=1.0, storage=storage)


def _run(config, warm_ops=0, spawned=None):
    session = ExperimentSession(config)
    session.load()
    if warm_ops:
        session.warm(operations=warm_ops)
    before = session.env.processed_events
    if spawned is not None:
        spawned.clear()   # count the measured run, not the load
    result = session.run_cell()
    summary = summarize_run(result)
    assert summary["errors"] == 0
    events = session.env.processed_events - before
    return events / config.operation_count, result.throughput, summary


#: Events per operation when the message leg landed (9.51 and 12.08 at
#: ``6dbf6af``); the ceiling is 5 % above.
LANDED_EVENTS_PER_OP = {"cassandra": 7.464, "hbase": 7.578}


@pytest.mark.parametrize("db", sorted(LANDED_EVENTS_PER_OP))
def test_events_per_op_stay_under_the_ceiling(db):
    events_per_op, _, _ = _run(_small_cell(
        db, scaled_stress_storage(400, 1000, 4)))
    assert events_per_op <= 1.05 * LANDED_EVENTS_PER_OP[db]


#: ``Process`` constructions per operation of the same two cells when
#: RPCs stopped being processes (3.181 and 1.513 at ``353f292``): one per
#: coordinated client operation (Cassandra) or per put (HBase — a get
#: costs none), plus WAL rounds, flushes and compactions; the ceiling is
#: 5 % above.
LANDED_PROCESSES_PER_OP = {"cassandra": 1.067, "hbase": 1.019}


@pytest.mark.parametrize("db", sorted(LANDED_PROCESSES_PER_OP))
def test_processes_per_op_stay_under_the_ceiling(db, monkeypatch):
    spawned = []
    plain_init = Process.__init__

    def counting_init(process, *args, **kwargs):
        spawned.append(1)
        plain_init(process, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    config = _small_cell(db, scaled_stress_storage(400, 1000, 4))
    _run(config, spawned=spawned)
    assert len(spawned) / config.operation_count \
        <= 1.05 * LANDED_PROCESSES_PER_OP[db]


def test_cache_resident_cell_did_not_move():
    """The benchmark's ``cas_closed_rw`` cell with a block cache larger
    than its data: nothing waits on a disk, so its simulated output
    depends on the transport and CPU model alone, and fewer events must
    not mean another answer.  42,244.9 ops/s and a 1.0052 ms p95 at
    ``6dbf6af`` (seed 1); the cell's own spread across seeds is 0.5 %."""
    config = default_stress_config("cassandra", "read_update", replication=3,
                                   seed=1)
    config = replace(
        config, record_count=4_000, operation_count=9_000, n_threads=32,
        n_nodes=8, settle_s=1.0,
        storage=replace(scaled_stress_storage(4_000, 1000, 7),
                        block_cache_bytes=64 << 20))
    _, throughput, summary = _run(config, warm_ops=3_000)
    assert throughput == pytest.approx(42_244.9, rel=0.01)
    assert summary["p95_ms"] == pytest.approx(1.0052, rel=0.01)


# -- one pipeline write, stage by stage -----------------------------------

@pytest.mark.parametrize("replication", [1, 2, 3])
def test_pipeline_write_is_one_event_per_hop(replication):
    cluster = flat_cluster(n_nodes=4)
    env, net = cluster.env, cluster.spec.node.network
    client = cluster.node(0)
    datanodes = [DataNode(cluster.node(i)) for i in (1, 2, 3)][:replication]
    for dn in datanodes:
        # Wake each page-cache flusher now (it then sleeps out its
        # interval), so a packet's buffered append kicks nothing.
        dn.node.disk.append_buffered(1)
    env.run(until=1e-6)  # start-up events and the kicks
    start, before = env.now, env.processed_events
    size = 3_000
    env.run(until=env.process(
        pipeline_write(cluster, client, datanodes, size), eager=True))

    def wire(n_bytes):
        return (n_bytes + net.header_bytes) / net.bandwidth_bps

    data_hop = wire(size) + net.base_latency_s + wire(size) + PACKET_CPU_S
    ack_hop = wire(ACK_BYTES) + net.base_latency_s + wire(ACK_BYTES)
    # RF data hops + RF ack hops, one timeout each, nothing else.
    assert env.processed_events - before == 2 * replication
    assert env.now - start == pytest.approx(
        replication * (data_hop + ack_hop), abs=1e-12)
    assert [dn.bytes_received for dn in datanodes] == [size] * replication


# -- same work, whenever it is booked -------------------------------------

def _scripted_work(db: str) -> dict:
    """200 operations, one at a time with the cluster idle in between,
    so what they cost cannot depend on how events interleave: 100
    inserts, then reads, updates and scans over them.  Records are big
    and memtables small, so flushes (multi-chunk pipeline writes on
    HBase) and, on Cassandra, compactions take part."""
    config = _small_cell(db, StorageSpec(memtable_flush_bytes=96 * 1024,
                                         block_bytes=8 * 1024,
                                         block_cache_bytes=256 * 1024))
    session = ExperimentSession(config)
    env, binding, size = session.env, session.binding, 16_000

    def script():
        for i in range(200):
            key = key_for_index((i * 37) % 100)
            if i < 100:
                yield from binding.insert(key_for_index(i), i, size)
            elif i % 4 == 0:
                yield from binding.update(key, i, size)
            elif i % 4 == 3 and i % 8 == 3:
                yield from binding.scan(key, 5, size)
            else:
                yield from binding.read(key, size)
            yield env.timeout(0.01)

    env.run(until=env.process(script()))
    env.run(until=env.now + 5.0)
    nodes = session.cluster.nodes
    return {"cpu_time": [node.cpu_time for node in nodes],
            "bytes_sent": [node.nic.bytes_sent for node in nodes],
            "bytes_received": [node.nic.bytes_received for node in nodes],
            "messages": [session.cluster.network.messages]}


#: ``_scripted_work`` at ``6dbf6af``, per node (the client is last).
PARENT_WORK = {
    "cassandra": {
        "cpu_time": [0.0115812, 0.0095996, 0.0096778, 0.0095882, 0.05],
        "bytes_sent": [2391014, 1729982, 1521568, 2352926, 2039370],
        "bytes_received": [1849520, 1796070, 2036768, 2356112, 1996390],
        "messages": [1092]},
    "hbase": {
        "cpu_time": [0.0033556, 0.0028798, 0.003358, 0.0034578, 0.05188],
        "bytes_sent": [3388706, 3178710, 3628804, 2493662, 2041390],
        "bytes_received": [3009008, 2686612, 3103952, 3725000, 2206700],
        "messages": [1319]},
}


@pytest.mark.parametrize("db", sorted(PARENT_WORK))
def test_scripted_work_equals_the_parents(db):
    work = _scripted_work(db)
    for counter, parent in PARENT_WORK[db].items():
        assert work[counter] == pytest.approx(parent, rel=1e-3), counter


# -- the paths that still need a process, against 353f292 -----------------
#
# Each script below ran unchanged at ``353f292`` (``yield from tree.get``
# drove a generator there and drives ``Event.__iter__`` here) and printed
# the values and simulated instants pinned beside it.

def _rack(n_nodes, seed=11):
    """The default rack, latency tail included (``flat_cluster`` has
    none) — what the scripts ran on at ``353f292``."""
    env = Environment()
    return env, Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(seed))


def _note(env, log, label, call):
    """Log ``(label, instant, outcome)`` the moment ``call`` completes."""
    def note(event):
        value = event._value
        log.append((label, env.now, type(value).__name__
                    if isinstance(value, Exception) else value))
    if call.callbacks is None:
        note(call)
    else:
        call.callbacks.append(note)


_SMALL_STORE = StorageSpec(memtable_flush_bytes=2048, block_bytes=512,
                           block_cache_bytes=1 << 20)


@pytest.mark.parametrize("get, put", [("get", "put"),
                                      ("get_inline", "put_inline")])
def test_block_misses_and_a_synchronous_log(get, put):
    env, cluster = _rack(1)
    node = cluster.node(0)
    spec = StorageSpec(memtable_flush_bytes=4000, block_bytes=1024,
                       block_cache_bytes=64 * 1024, compaction_min_batch=10)
    tree = LsmTree(env, node, LocalDiskMedium(node), spec)
    synced = LsmTree(env, node, LocalDiskMedium(node),
                     replace(spec, wal_sync_each_append=True))
    log = []

    def script():
        for version in (1, 2, 3):
            for i in range(40):
                yield from getattr(tree, put)(f"k{i:03d}", (version, i), 100,
                                              float(version))
            yield env.timeout(1.0)
        assert tree.n_sstables == 3 and not tree.flushing
        tree.cache = BlockCache(spec.block_cache_bytes)
        # Cold: the newest run's block misses first, then the other two.
        log.append((env.now, (yield from getattr(tree, get)("k005"))))
        # All three cached now: no disk, no process.
        log.append((env.now, (yield from getattr(tree, get)("k005"))))
        # Only the oldest run's block is gone: a miss on a later run.
        oldest = tree.sstables[-1]
        del tree.cache._entries[(oldest.sstable_id, oldest.block_of("k005"))]
        log.append((env.now, (yield from getattr(tree, get)("k005"))))
        log.append((env.now, tree.stats["block_reads"], tree.cache.hits,
                    tree.cache.misses))
        yield from getattr(synced, put)("s", 1, 100, 9.0)
        log.append((env.now, synced.active.get("s")))
        yield from getattr(synced, put)("t", 2, 100, 9.0)
        log.append((env.now, node.cpu_time, node.disk.busy_time))

    env.run(until=env.process(script()))
    assert log == [
        (3.000359999999998, ((3, 5), 3.0)),
        (3.0237199798808017, ((3, 5), 3.0)),
        (3.0237269798808017, ((3, 5), 3.0)),
        (3.0322840074430544, 4, 5, 4),
        (3.0326254837479856, (1, 9.0, 100)),
        (3.032893687697654, 0.0005070000000000007, 0.03410706542886351)]


@pytest.mark.parametrize("local", [False, True], ids=["remote", "local"])
def test_pooled_replica(local):
    """One slot, two queue places, five reads at one instant — over the
    wire, and as the coordinator's own node through ``call_local``."""
    env, cluster = _rack(5)
    cassandra = CassandraCluster(cluster, CassandraSpec(
        replication=2, handler_slots=1, max_handler_queue=2,
        storage=_SMALL_STORE))
    src = cassandra.client_node
    cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
    log = []

    def read(label, deadline=None):
        if local:
            call = cluster.call_local(
                cnode._handle_read_data(("k007", deadline)))
        else:
            call = cluster.call_async(
                src, cnode.node, "c.read_data", ("k007", deadline),
                request_bytes=60, response_bytes=130, timeout=2.0,
                deadline=deadline)
        assert isinstance(call, AsyncCall)
        _note(env, log, label, call)

    def script():
        for i in range(30):
            yield from cluster.call(
                src, cnode.node, "c.mutate", (f"k{i:03d}", i, 100, 1.0),
                request_bytes=160, response_bytes=20)
        yield env.timeout(1.0)
        assert cnode.tree.n_sstables >= 1
        cnode.tree.cache = BlockCache(1 << 20)  # the next read goes to disk
        read("slot free")
        read("expires queued", deadline=env.now + 0.002)
        read("queued")
        read("shed")
        read("shed with deadline", deadline=env.now + 1.0)
        yield env.timeout(1.0)
        read("spent before queue", deadline=env.now)
        yield env.timeout(1.0)
        pool = cnode.replica_pool
        log.append(("pool", pool.shed, pool.count, pool.queue_len,
                    cnode.ops["read_data"], cluster.abandoned_rpcs))

    env.run(until=env.process(script()))
    assert log == ([
        ("shed", 1.0051525315818306, "Overloaded"),
        ("shed with deadline", 1.0051525315818306, "Overloaded"),
        ("expires queued", 1.0071525315818306, "DeadlineExceeded"),
        ("slot free", 1.0133271543543758, (7, 1.0)),
        ("queued", 1.013342154354376, (7, 1.0)),
        # The slot is free: granted before the deadline is looked at.
        ("spent before queue", 2.0051675315818307, (7, 1.0)),
        ("pool", 2, 0, 0, 6, 0)] if local else [
        ("shed", 1.0052664729894607, "Overloaded"),
        ("shed with deadline", 1.005268524271512, "Overloaded"),
        ("expires queued", 1.0071525315818306, "DeadlineExceeded"),
        ("slot free", 1.0135100216816086, (7, 1.0)),
        ("queued", 1.0135231518008763, (7, 1.0)),
        # Pre-spent: never sent, so never counted by the replica.
        ("spent before queue", 2.005152531581831, "DeadlineExceeded"),
        ("pool", 2, 0, 0, 5, 0)])


def _region_of(hbase, key):
    region = hbase.region_for_token(token_of(key))
    return region, hbase.regionservers[hbase.master.assignment[
        region.region_id]]


def test_pooled_region_server():
    env, cluster = _rack(4)
    hbase = HBaseCluster(cluster, HBaseSpec(
        replication=2, regions_per_server=1, handler_slots=1,
        max_handler_queue=2, storage=_SMALL_STORE))
    client = HBaseClient(hbase, hbase.master_node)
    key = key_for_index(3)
    region, rs = _region_of(hbase, key)
    log = []

    def read(label, deadline=None, region_id=region.region_id):
        payload = (region_id, key)
        if deadline is not None:
            payload = (*payload, deadline)
        _note(env, log, label, cluster.call_async(
            hbase.master_node, rs.node, "rs.get", payload, request_bytes=60,
            response_bytes=130, timeout=2.0, deadline=deadline))

    def script():
        yield from client.put(key, "v", 100)
        for i in range(40):
            yield from region.tree.put(f"{key}-{i:02d}", i, 100, 1.0)
        yield env.timeout(2.0)
        assert region.tree.n_sstables >= 1
        region.tree.cache = BlockCache(1 << 20)
        read("slot free")
        read("expires queued", deadline=env.now + 0.002)
        read("queued")
        read("shed")
        yield env.timeout(1.0)
        region.available_at = env.now + 0.05
        read("region reopening")
        read("not serving", region_id=10_000)
        yield env.timeout(1.0)
        pool = rs.handler_pool
        log.append(("pool", pool.shed, pool.count, pool.queue_len,
                    rs.ops["get"]))

    env.run(until=env.process(script()))
    assert log == [
        ("shed", 2.0081779191860134, "Overloaded"),
        ("expires queued", 2.0100875814804016, "DeadlineExceeded"),
        ("slot free", 2.015744114509068, ("v", 0.0)),
        ("queued", 2.0157485993139117, ("v", 0.0)),
        ("not serving", 3.0082224041939303, "NotServingRegion"),
        ("region reopening", 3.0581620429399448, ("v", 0.0)),
        ("pool", 1, 0, 0, 3)]


def test_unpooled_region_server_waits_for_a_reopening_region():
    env, cluster = _rack(4)
    hbase = HBaseCluster(cluster, HBaseSpec(replication=2,
                                            regions_per_server=1))
    client = HBaseClient(hbase, hbase.master_node)
    key = key_for_index(3)
    region, rs = _region_of(hbase, key)
    log = []

    def script():
        yield from client.put(key, "v", 100)
        region.available_at = env.now + 0.05
        for label in ("reopening", "open"):
            found = yield from client.get(key, 100)
            log.append((label, found, env.now, rs.ops["get"]))

    env.run(until=env.process(script()))
    assert log == [("reopening", ("v", 0.0), 0.05074057390518237, 1),
                   ("open", ("v", 0.0), 0.05108972764535547, 2)]


def test_dead_callees_and_spent_deadlines():
    """Every way a response can fail to come, on ``call()`` and on
    ``call_async()`` at once: same instants, same kinds, in this order."""
    env, cluster = _rack(3)
    a, b, c = cluster.nodes
    log = []

    def echo(payload):
        return payload
        yield  # pragma: no cover

    for node in (b, c):
        node.register("echo", echo)
    cluster.kill(c.node_id)

    def sync(label, dst, **bounds):
        try:
            value = yield from cluster.call(
                a, dst, "echo", label, request_bytes=100, response_bytes=100,
                **bounds)
            log.append((label, "sync", env.now, value))
        except Exception as exc:
            log.append((label, "sync", env.now, type(exc).__name__))

    def fire(label, dst, **bounds):
        _note(env, log, (label, "async"), cluster.call_async(
            a, dst, "echo", label, request_bytes=100, response_bytes=100,
            **bounds))
        env.process(sync(label, dst, **bounds))

    def script():
        yield env.timeout(0.01)
        fire("dead, no bound", c)
        fire("dead, timeout", c, timeout=1.0)
        fire("dead, deadline", c, deadline=env.now + 0.5)
        fire("dead, both", c, timeout=1.0, deadline=env.now + 0.25)
        # The budget runs out while the request is on the wire: the
        # callee abandons it on arrival.
        fire("spent in flight", b, deadline=env.now + 1e-5)
        fire("spent in flight, timeout", b, timeout=1.0,
             deadline=env.now + 1e-5)
        fire("spent before send", b, deadline=env.now)
        fire("alive", b, timeout=1.0, deadline=env.now + 0.5)
        yield env.timeout(3.0)
        log.append(("abandoned", cluster.abandoned_rpcs, cluster.rpc_count))

    env.run(until=env.process(script()))
    env.run()
    assert log == [
        (("spent before send", "async"), 0.01, "DeadlineExceeded"),
        ("spent before send", "sync", 0.01, "DeadlineExceeded"),
        (("spent in flight", "async"), 0.01001, "DeadlineExceeded"),
        (("spent in flight, timeout", "async"), 0.01001, "DeadlineExceeded"),
        ("spent in flight", "sync", 0.01001, "DeadlineExceeded"),
        ("spent in flight, timeout", "sync", 0.01001, "DeadlineExceeded"),
        (("dead, no bound", "async"), 0.010077401102095308, "DeadNodeError"),
        ("dead, no bound", "sync", 0.010146387857939023, "DeadNodeError"),
        (("alive", "async"), 0.01014751451824609, "alive"),
        ("alive", "sync", 0.01018244184040173, "alive"),
        (("dead, both", "async"), 0.26, "DeadlineExceeded"),
        ("dead, both", "sync", 0.26, "DeadlineExceeded"),
        (("dead, deadline", "async"), 0.51, "DeadlineExceeded"),
        ("dead, deadline", "sync", 0.51, "DeadlineExceeded"),
        (("dead, timeout", "async"), 1.03125, "RpcTimeout"),
        ("dead, timeout", "sync", 1.03125, "RpcTimeout"),
        ("abandoned", 4, 16)]
    assert cluster._wheel._pending == {}


# -- four traps of a transport without a body process ---------------------

def test_generator_handler_failing_in_its_first_segment_is_a_value():
    """(a) A full bounded queue raises ``Overloaded`` before the handler
    ever yields — inside ``Process.__init__`` — and the transport has to
    be listening by then, or ``_finalize`` raises it into the kernel."""
    env, cluster = _rack(2)
    a, b = cluster.nodes

    def full(payload):
        raise Overloaded("queue full")
        yield  # pragma: no cover

    b.register("full", full)
    remote = cluster.call_async(a, b, "full", timeout=1.0)
    local = cluster.call_local(full(None))
    assert local.processed and type(local.value) is Overloaded
    env.run(until=remote)
    assert type(remote.value) is Overloaded
    assert remote.value.__traceback__ is None
    assert local.value.__traceback__ is None

    def caller():
        with pytest.raises(Overloaded):
            yield from cluster.call(a, b, "full", timeout=1.0)
        return env.now

    assert env.run(until=env.process(caller())) < 1e-3
    env.run()   # nothing left armed


def test_plain_function_handler_raising_is_a_failed_outcome():
    """(b) ``rs.get`` for a region that is not there raises before it
    has an event to return; that is the handler failing, traceback-free
    once delivered, not a crash of the request leg's dispatch."""
    env, cluster = _rack(4)
    hbase = HBaseCluster(cluster, HBaseSpec(replication=2,
                                            regions_per_server=1))
    rs = next(iter(hbase.regionservers.values()))
    call = cluster.call_async(hbase.master_node, rs.node, "rs.get",
                              (10_000, key_for_index(1)), timeout=1.0)
    seen = []
    call.callbacks.append(seen.append)   # a waiter: the failure propagates
    env.run(until=0.5)
    assert seen == [call] and not call._ok
    assert type(call._value) is NotServingRegion
    assert call._value.__traceback__ is None

    def caller():
        with pytest.raises(NotServingRegion):
            yield from cluster.call(hbase.master_node, rs.node, "rs.get",
                                    (10_000, key_for_index(1)), timeout=1.0)

    env.run(until=env.process(caller()))
    # Nobody waiting and not a modelled failure: still a loud crash.
    rs.node.handlers["rs.bug"] = lambda payload: 1 / 0
    cluster.call_async(hbase.master_node, rs.node, "rs.bug", timeout=1.0)
    with pytest.raises(ZeroDivisionError):
        env.run()


@pytest.mark.parametrize("slow", ["remote", "local"])
def test_hedged_read_with_a_coordinator_local_contender(slow):
    """(c) With a hedge policy and no replica pool the coordinator's own
    data read still runs as a process, behind ``call_local``: it can win
    a hedge, and when it loses one the interrupt reaches the disk queue
    it stands in — the block is never read and the spindle never held,
    as at ``353f292`` (instants, event counts and disk time pinned from
    there)."""
    env, cluster = _rack(6, seed=99)
    cassandra = CassandraCluster(cluster, CassandraSpec(
        replication=3, read_repair_chance=0.0, speculative_retry="5ms"))
    session = CassandraSession(cassandra, cassandra.client_node)
    key = key_for_index(5)
    first, second, _ = cassandra.replicas_of(key)
    tree = cassandra.nodes[first].tree
    disk = tree.node.disk

    def stall(node_id, delay_s):
        cnode = cassandra.nodes[node_id]
        plain = cnode._handle_read_data

        def slow_read(payload, *cancellable):
            yield env.timeout(delay_s)
            return (yield from plain(payload, *cancellable))

        # Both routes: the verb table (remote) and the method (local).
        cnode.node.handlers["c.read_data"] = slow_read
        cnode._handle_read_data = slow_read

    def scenario():
        yield from session.insert(key, "value", 100)
        yield env.timeout(1.0)
        if slow == "remote":
            # Coordinator = the spare: its local read wins the hedge and
            # the remote primary's caller-side wait is cancelled.
            coordinator = cassandra.nodes[second].coordinator
            stall(first, 1.0)
        else:
            # Coordinator = the primary, stalled on a cold block behind
            # a busy disk: the remote spare wins and the loser is the
            # local read, queued for the spindle.
            coordinator = cassandra.nodes[first].coordinator
            tree._rotate()
            yield env.timeout(0.5)
            assert tree.n_sstables == 1 and not tree.flushing
            tree.cache = BlockCache(1 << 20)
            hold = disk._spindle.request()
            assert hold.triggered
        contenders = []
        plain_read = coordinator._replica_read

        def spying_read(*args, **kwargs):
            contenders.append(plain_read(*args, **kwargs))
            return contenders[-1]

        coordinator._replica_read = spying_read
        found = yield from coordinator.handle_read(
            (key, ConsistencyLevel.ONE.value, 100))
        answered = env.now
        if slow == "local":
            yield env.timeout(0.001)
            disk._spindle.release(hold)
        return found, answered, coordinator, contenders

    (value, _), answered, coordinator, contenders = env.run(
        until=env.process(scenario()))
    assert value == "value"
    assert coordinator.stats["hedged_reads"] == 1
    assert coordinator.stats["hedge_wins"] == 1
    # Every contender can be cancelled, this node's own read included.
    assert all(isinstance(c, AsyncCall) for c in contenders)
    primary, spare = contenders
    assert type(primary.value) is Interrupt and spare.value == ("value", 0.0)
    before_drain = env.processed_events
    env.run(until=env.now + 10.0)
    assert (answered, before_drain, env.processed_events) == (
        (1.0056099383724044, 43, 100) if slow == "remote"
        else (1.505793507241164, 52, 105))
    # The cancelled lookup left the spindle's queue without reading:
    # the disk's time is the commit log's (and the flush's) alone.
    assert tree.stats["block_reads"] == 0
    assert disk.busy_time == (0.00031941897970871403 if slow == "remote"
                              else 0.0006127490948400951)


def test_put_applies_before_the_response_leg_is_booked():
    """(d) On the request leg's fire the order is: memtable insert,
    rotation (its flush process is allocated), response leg — and at
    issue time the request leg's ``Timeout`` is allocated before the
    shared wheel's."""
    env, cluster = _rack(5)
    cassandra = CassandraCluster(cluster, CassandraSpec(
        replication=2, storage=replace(_SMALL_STORE,
                                       memtable_flush_bytes=300)))
    src = cassandra.client_node
    cnode = cassandra.nodes[cassandra.server_nodes[0].node_id]
    tree = cnode.tree
    booked = []
    plain_leg = cluster.leg

    def spying_leg(leg_src, dst, *args, **kwargs):
        if leg_src is cnode.node:   # a response leaving the replica
            booked.append((tree.stats["puts"], len(tree.flushing),
                           [type(e).__name__ for *_, e in env._queue]))
        return plain_leg(leg_src, dst, *args, **kwargs)

    cluster.leg = spying_leg
    seq_before = env._seq
    calls = [cluster.call_async(src, cnode.node, "c.mutate",
                                (f"k{i}", i, 100, 1.0), request_bytes=160,
                                response_bytes=20, timeout=1.0)
             for i in range(3)]
    timers = {seq: event for _, _, seq, event in env._queue
              if seq > seq_before and type(event) is Timeout}
    (wheel_timer, _), = cluster._wheel._pending.values()
    legs = [seq for seq, event in timers.items() if event is not wheel_timer]
    wheel = [seq for seq, event in timers.items() if event is wheel_timer]
    assert len(legs) == 3 and len(wheel) == 1 and min(legs) < wheel[0]
    env.run(until=0.5)
    assert [c.value for c in calls] == [None] * 3
    # Third put fills the 300-byte memtable: rotated, its flush process
    # already started on the queue, when the third response is booked.
    assert [(puts, flushing, "Initialize" in queued)
            for puts, flushing, queued in booked] \
        == [(1, 0, False), (2, 0, False), (3, 1, True)]
