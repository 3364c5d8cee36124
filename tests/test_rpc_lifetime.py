"""Object lifetime of the RPC transport.

An RPC owns its state until it *settles*, not until its timeout would
have fired: the shared timer wheel holds watchers for in-flight RPCs
only, and a modelled failure (timeout, shed) is a value without a
traceback — so a finished RPC's object graph dies by reference count.

Everything here is host-independent.  The cyclic collector is switched
off for the duration of each test, so "gone" means "freed by reference
count"; live objects are counted through ``gc.get_objects()`` (kernel
events carry ``__slots__`` without ``__weakref__``).
"""

import gc
import traceback
from dataclasses import replace
from functools import partial
from types import FunctionType

import pytest

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import (AsyncCall, Cluster, ClusterSpec,
                                    DeadNodeError, DeadlineExceeded,
                                    RpcTimeout, TailDefenseConfig)
from repro.core.config import default_stress_config, scaled_stress_storage
from repro.core.experiment import ExperimentSession
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.hbase.regionserver import _Round
from repro.hdfs.datanode import DataNode
from repro.hdfs.pipeline import _PipelineWrite, pipeline_write
from repro.keyspace import key_for_index
from repro.sim.kernel import AllOf, Environment, Event, Process, Timeout
from repro.sim.resources import Overloaded
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec, _LoggedPut

pytestmark = pytest.mark.hashseed

N = 25


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def make(n_nodes=3):
    env = Environment()
    return env, Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(5))


def live(env, cls):
    """Instances of exactly ``cls`` belonging to ``env`` still in memory
    (each node's ``disk-flusher`` daemon is not counted)."""
    return sum(1 for obj in gc.get_objects()
               if type(obj) is cls and obj.env is env
               and getattr(obj, "name", None) != "disk-flusher")


def watching(cluster):
    """(pending shared timers, watchers registered on them)."""
    pending = cluster._wheel._pending
    return len(pending), sum(len(table) for _, table in pending.values())


def in_flight(cluster):
    """The calls the shared timers watch, and the calls still pending:
    the same set, when every watch belongs to an RPC in flight."""
    watched = {id(call) for _, table in cluster._wheel._pending.values()
               for call in table}
    pending = {id(obj) for obj in gc.get_objects()
               if type(obj) is AsyncCall and obj.env is cluster.env
               and not obj.triggered}
    return watched, pending


def echo(payload):
    return payload
    yield  # pragma: no cover


def shed(payload):
    raise Overloaded("queue full")
    yield  # pragma: no cover


class TestSettledRpcsAreReleased:
    def test_finished_calls_die_by_refcount(self):
        env, cluster = make()
        a, b, c = cluster.nodes
        b.register("echo", echo)
        c.register("echo", echo)

        def client():
            for i in range(N):
                assert (yield from cluster.call(a, b, "echo", i,
                                                timeout=10.0)) == i
            calls = [cluster.call_async(a, (b, c)[i % 2], "echo", i,
                                        timeout=10.0) for i in range(N)]
            yield AllOf(env, calls)
            return [call.value for call in calls]

        assert env.run(until=env.process(client())) == list(range(N))
        assert env.now < 1.0
        # The 10 s timers are all still pending — and watch nothing.
        timers, watchers = watching(cluster)
        assert timers >= 1 and watchers == 0
        assert live(env, Process) == 0
        assert live(env, AsyncCall) == 0

    def test_shed_calls_die_by_refcount_and_carry_no_traceback(self):
        env, cluster = make()
        a, b, _ = cluster.nodes
        b.register("shed", shed)
        seen = []

        def client():
            for _ in range(N):
                try:
                    yield from cluster.call(a, b, "shed", timeout=10.0)
                except Overloaded as exc:
                    seen.append(type(exc))
            calls = [cluster.call_async(a, b, "shed", timeout=10.0)
                     for _ in range(N)]
            yield AllOf(env, calls)
            return [call.value for call in calls]

        values = env.run(until=env.process(client()))
        assert seen == [Overloaded] * N
        assert all(type(v) is Overloaded and v.__traceback__ is None
                   for v in values)
        assert watching(cluster)[1] == 0
        del values
        assert live(env, Process) == 0
        assert live(env, AsyncCall) == 0

    def test_local_shed_value_has_no_traceback(self):
        env, cluster = make()

        def local_read(payload):
            raise Overloaded("local queue full")

        call = cluster.call_local(local_read, None)
        assert call.processed and live(env, Process) == 0
        value = env.run(until=call)
        assert type(value) is Overloaded and value.__traceback__ is None

    def test_watchers_equal_rpcs_in_flight(self):
        """One ``AsyncCall`` per RPC, whether a process waits on it
        through ``call()`` or a fan-out holds it, and one watch for each
        still in flight — a call to a dead node included, which waits out
        its timer in the place it registered."""
        env, cluster = make(4)
        a, b, c, d = cluster.nodes
        cluster.kill(d.node_id)

        def slow(payload):
            yield env.timeout(0.5)
            return payload

        for node in (b, c, d):
            node.register("echo", echo)
            node.register("slow", slow)

        def sync_client(dst, verb):
            try:
                yield from cluster.call(a, dst, verb, timeout=10.0)
            except RpcTimeout:
                pass

        def fanout():
            yield AllOf(env, [cluster.call_async(a, dst, verb, timeout=10.0)
                              for dst in (b, c, d)
                              for verb in ("echo", "slow")])

        env.process(fanout())
        for dst in (b, c, d):
            env.process(sync_client(dst, "echo"))
            env.process(sync_client(dst, "slow"))
        env.run(until=0.1)
        # In flight: the two slow handlers (x2: async + sync) and every
        # call to the dead node, which waits out its timer (2 + 2).
        watched, pending = in_flight(cluster)
        assert watched == pending and len(watched) == 8
        # The pending AllOf holds all six fan-out calls, settled or not;
        # each sync caller the one call it waits on, until it moves on.
        assert live(env, AsyncCall) == 6 + 4
        env.run(until=1.0)
        watched, pending = in_flight(cluster)
        assert watched == pending and len(watched) == 4
        assert live(env, AsyncCall) == 6 + 2
        env.run(until=12.0)
        assert watching(cluster) == (0, 0)
        assert live(env, Process) == 0
        assert live(env, AsyncCall) == 0


class TestProcessFreeRpcsAreReleased:
    """A handler that returns an event costs no process; what is left to
    own the RPC's state is the round-trip object, reachable only from
    the leg or handler event it is subscribed to and from its waiter."""

    @staticmethod
    def serve(env, delay_s):
        def handler(payload):
            return env.timeout(delay_s, value=payload)
        return handler

    @staticmethod
    def refuse(payload):
        raise Overloaded("queue full")

    def test_after_settle(self):
        env, cluster = make()
        a, b, _ = cluster.nodes
        b.register("echo", self.serve(env, 0.001))

        def client():
            for i in range(N):
                assert (yield from cluster.call(a, b, "echo", i,
                                                timeout=10.0)) == i
            calls = [cluster.call_async(a, b, "echo", i, timeout=10.0)
                     for i in range(N)]
            assert live(env, Process) == 1   # this client, nothing else
            yield AllOf(env, calls)
            return [call.value for call in calls]

        assert env.run(until=env.process(client())) == list(range(N))
        timers, watchers = watching(cluster)
        assert timers >= 1 and watchers == 0
        assert live(env, Process) == 0
        assert live(env, AsyncCall) == 0
        # Only the shared 10 s timers are still to fire: no leg, no
        # handler event.
        assert live(env, Timeout) == timers

    def test_after_timeout(self):
        env, cluster = make()
        a, b, _ = cluster.nodes
        b.register("slow", self.serve(env, 5.0))

        def client():
            call = cluster.call_async(a, b, "slow", timeout=1.0)
            with pytest.raises(RpcTimeout):
                yield from cluster.call(a, b, "slow", timeout=1.0)
            return type((yield call))

        assert env.run(until=env.process(client())) is RpcTimeout
        assert env.now == 1.0
        assert watching(cluster) == (0, 0)
        # Both requests are still being served (cancellation does not
        # reach over the wire); each call lives exactly as long as its
        # handler event and response leg.
        assert live(env, AsyncCall) == 2
        env.run()
        assert live(env, AsyncCall) == 0
        assert live(env, Timeout) == live(env, Process) == 0

    def test_after_a_shed(self):
        env, cluster = make()
        a, b, _ = cluster.nodes
        b.register("shed", self.refuse)
        seen = []

        def client():
            for _ in range(N):
                try:
                    yield from cluster.call(a, b, "shed", timeout=10.0)
                except Overloaded as exc:
                    seen.append(type(exc))
            calls = [cluster.call_async(a, b, "shed", timeout=10.0)
                     for _ in range(N)]
            yield AllOf(env, calls)
            return [call.value for call in calls]

        values = env.run(until=env.process(client()))
        assert seen == [Overloaded] * N
        assert all(type(v) is Overloaded and v.__traceback__ is None
                   for v in values)
        assert watching(cluster)[1] == 0
        del values
        assert live(env, Process) == 0
        assert live(env, AsyncCall) == 0


class TestCoordinatedRequestsAreReleased:
    """A coordinated request is callbacks on its replica calls, sharing
    the request's state as closures: once it has answered and its replica
    calls have drained, none of them is left, nor any call."""

    @staticmethod
    def closures():
        return sum(1 for obj in gc.get_objects()
                   if type(obj) is FunctionType
                   and obj.__module__ == "repro.cassandra.coordinator"
                   and "<locals>" in obj.__qualname__)

    @pytest.mark.parametrize("hedged", [False, True],
                             ids=["plain", "hedged"])
    def test_after_settle(self, hedged):
        env, cluster = make(6)
        cassandra = CassandraCluster(
            cluster, CassandraConfig(replication=3, read_repair_chance=0.5),
            StorageSpec(), TailDefenseConfig(hedge="0ms" if hedged else None))
        session = CassandraSession(cassandra, cassandra.client_node)
        keys = [key_for_index(i) for i in range(N)]
        assert self.closures() == 0

        def client():
            for key in keys:
                yield from session.insert(key, "v0", 100)
            stale = cassandra.nodes[cassandra.replicas_of(keys[0])[1]]
            yield stale._handle_mutate((keys[0], "v1", 100, env.now))
            for key in keys:
                yield from session.read(key, cl=ConsistencyLevel.QUORUM)
                yield from session.read(key)
                yield from session.insert(key, "v2", 100,
                                          cl=ConsistencyLevel.QUORUM)
            yield from session.scan(keys[0], 5)

        process = env.process(client())
        env.run(until=1e-3)
        assert self.closures() > 0   # a request in flight holds some
        env.run(until=process)
        del process
        assert cassandra.total_stats()["read_repairs"] >= 1
        env.run(until=env.now + 5.0)
        assert self.closures() == 0
        assert live(env, AsyncCall) == 0
        assert {obj.name for obj in gc.get_objects()
                if type(obj) is Process and obj.env is env} \
            <= {"disk-flusher"} | {f"hints-{n.node_id}"
                                   for n in cassandra.server_nodes}
        assert all(cnode.coordinator.inflight == 0
                   for cnode in cassandra.nodes.values())


class TestCellsDoNotAccumulateRpcState:
    @pytest.mark.parametrize("db", ["cassandra", "hbase"])
    def test_live_processes_are_a_sliver_of_the_rpcs_issued(self, db):
        config = replace(
            default_stress_config(db, "read_update", seed=3),
            record_count=300, operation_count=500, n_threads=8, n_nodes=5,
            storage=scaled_stress_storage(300, 1000, 4), settle_s=0.5)
        session = ExperimentSession(config)
        session.load()
        result = session.run_cell()
        assert result.operations >= 400   # 500 issued, warm-up excluded
        rpcs = session.cluster.rpc_count
        assert rpcs >= 500
        # Before the fix every RPC body of the run was still reachable
        # from a pending 2-10 s timer (~100% of rpc_count).
        gc.collect()
        assert live(session.env, Process) < 0.05 * rpcs
        assert watching(session.cluster)[1] < 0.05 * rpcs


class TestHBaseWritePathIsReleased:
    """A put, a WAL round and a pipeline write are callback chains: each
    one's state is an object reachable only from the event it waits on
    and from its waiter, so it dies — by reference count — the moment
    its last callback has run."""

    def test_after_settle_no_write_path_object_survives(self):
        config = replace(
            default_stress_config("hbase", "read_update", seed=3),
            record_count=300, operation_count=500, n_threads=8, n_nodes=5,
            storage=scaled_stress_storage(300, 1000, 4), settle_s=0.5)
        session = ExperimentSession(config)
        born = {cls: 0 for cls in (_LoggedPut, _Round, _PipelineWrite)}

        def counting(cls):
            plain_init = cls.__init__

            def init(self, *args, **kwargs):
                born[cls] += 1
                plain_init(self, *args, **kwargs)

            return init

        with pytest.MonkeyPatch.context() as patch:
            for cls in born:
                patch.setattr(cls, "__init__", counting(cls))
            session.load()
            session.run_cell()
        wals = [rs.wal for rs in session.hbase.regionservers.values()]
        assert born[_LoggedPut] == sum(wal.appends for wal in wals) >= 500
        assert born[_Round] == sum(wal.batches for wal in wals) >= 100
        assert born[_PipelineWrite] >= born[_Round]   # + the flushes
        alive = {cls.__name__: sum(1 for obj in gc.get_objects()
                                   if type(obj) is cls) for cls in born}
        assert alive == {"_LoggedPut": 0, "_Round": 0, "_PipelineWrite": 0}
        # Nor a process, the daemons apart: the client threads are done,
        # and each writer is an event with a callback on it, waiting for
        # its next kick.
        assert {obj.name for obj in gc.get_objects()
                if type(obj) is Process and obj.env is session.env} \
            == {"disk-flusher", "hmaster-monitor"}
        assert all(wal._kick is not None and not wal._pending
                   for wal in wals)


    def test_a_leg_booked_on_arrival_leaves_nothing_behind(self):
        """The chunks of a bulk transfer — and every cross-datacenter
        leg — land through a plain event behind two timeouts, the first
        holding a ``partial``; neither outlives the landing."""
        env, cluster = make(4)
        datanodes = [DataNode(cluster.node(i)) for i in (1, 2, 3)]

        def landings():
            return sum(1 for obj in gc.get_objects() if type(obj) is partial
                       and obj.func.__name__ == "_land")

        env.run(until=0.01)
        events, timeouts = live(env, Event), live(env, Timeout)
        write = pipeline_write(cluster, cluster.node(0), datanodes, 300_000)
        assert landings() == 1 and live(env, Event) == events + 1
        env.run(until=write)
        env.run(until=env.now + 1.0)
        assert [dn.bytes_received for dn in datanodes] == [300_000] * 3
        assert landings() == 0
        assert not [cb for *_, event in env._queue
                    for cb in event.callbacks or ()
                    if type(cb) is partial]
        del write
        assert live(env, _PipelineWrite) == 0
        assert (live(env, Event), live(env, Timeout)) == (events, timeouts)


class TestScansAreReleased:
    """An engine scan is an event and the callbacks that complete it,
    plus a process only from its first block-cache miss: once every scan
    has answered, no scan event, none of its callbacks and no scan
    process is left — cache-resident or not, on either engine."""

    @pytest.mark.parametrize("cached", [True, False],
                             ids=["resident", "block-misses"])
    @pytest.mark.parametrize("db", ["cassandra", "hbase"])
    def test_after_settle(self, db, cached):
        env, cluster = make(5)
        storage = StorageSpec(memtable_flush_bytes=2048, block_bytes=512,
                              block_cache_bytes=(1 << 20) if cached else 0)
        if db == "cassandra":
            cassandra = CassandraCluster(
                cluster, CassandraConfig(replication=2), storage,
                TailDefenseConfig())
            trees = [cnode.tree for cnode in cassandra.nodes.values()]
            driver = CassandraSession(cassandra, cassandra.client_node)
            write = driver.insert
        else:
            hbase = HBaseCluster(
                cluster, HBaseConfig(replication=2, regions_per_server=2),
                storage, TailDefenseConfig())
            trees = [region.tree for region in hbase.regions]
            driver = HBaseClient(hbase, hbase.master_node)
            write = driver.put
        keys = [key_for_index(i) for i in range(N)]

        def load():
            for key in keys:
                yield from write(key, "v", 1000)

        def scan():
            for key in keys:
                yield from driver.scan(key, 5)

        env.run(until=env.process(load()))
        env.run(until=env.now + 11.0)   # flushes land, RPC timers fire
        events, timeouts = live(env, Event), live(env, Timeout)
        process = env.process(scan())
        env.run(until=process)
        del process
        env.run(until=env.now + 11.0)
        assert sum(tree.stats["scans"] for tree in trees) >= N
        assert (sum(tree.stats["block_reads"] for tree in trees) > 0) \
            is not cached
        assert (live(env, Event), live(env, Timeout)) == (events, timeouts)
        assert live(env, AsyncCall) == 0
        assert not [obj for obj in gc.get_objects()
                    if type(obj) is FunctionType
                    and obj.__qualname__.startswith("LsmTree.scan.<locals>")]
        assert not [obj for obj in gc.get_objects()
                    if type(obj) is Process and obj.env is env
                    and obj.name.endswith("-scan")]


class TestNothingGotQuieter:
    def test_unexpected_failure_still_crashes_with_its_traceback(self):
        env, cluster = make()
        a, b, _ = cluster.nodes

        def handler(payload):
            yield env.timeout(0.001)
            raise ValueError("genuine bug")

        b.register("bug", handler)
        cluster.call_async(a, b, "bug", timeout=10.0)   # nobody waits
        with pytest.raises(ValueError, match="genuine bug") as info:
            env.run()
        frames = traceback.extract_tb(info.value.__traceback__)
        raising = handler.__code__.co_firstlineno + 2
        assert (frames[-1].name, frames[-1].lineno) == ("handler", raising)

    def test_unhandled_modelled_failure_keeps_its_traceback_too(self):
        env = Environment()

        def worker():
            yield env.timeout(0.001)
            raise Overloaded("nobody is listening")

        env.process(worker())
        with pytest.raises(Overloaded) as info:
            env.run()
        assert traceback.extract_tb(info.value.__traceback__)[-1].name \
            == "worker"

    def test_dead_node_timeouts_fire_at_the_same_instant(self):
        """1 s timeout issued at t=0.01 rounds up onto the 1/32 s wheel,
        and the timer resumes its callers itself, in the order they
        registered — no event of their own."""
        env, cluster = make()
        a, b, _ = cluster.nodes
        b.register("echo", echo)
        cluster.kill(b.node_id)
        outcome = {}

        def sync_client():
            yield env.timeout(0.01)
            try:
                yield from cluster.call(a, b, "echo", timeout=1.0)
            except RpcTimeout as exc:
                outcome["sync"] = (env.now, type(exc), exc.__context__)

        def async_client():
            yield env.timeout(0.01)
            value = yield cluster.call_async(a, b, "echo", timeout=1.0)
            outcome["async"] = (env.now, type(value), value.__traceback__)

        env.process(sync_client())
        env.process(async_client())
        env.run()
        assert outcome == {"sync": (1.03125, RpcTimeout, None),
                           "async": (1.03125, RpcTimeout, None)}
        # Woken in registration order: the sync caller's process started
        # first, so its call took the first place in the timer's table
        # and kept it through b's silence.
        assert list(outcome) == ["sync", "async"]
        assert watching(cluster) == (0, 0)

    @pytest.mark.parametrize("kind, bounds, dead", [
        (RpcTimeout, {"timeout": 1.0}, False),
        (DeadlineExceeded, {"timeout": 1.0, "deadline": 0.5}, False),
        (DeadNodeError, {}, True)])
    def test_the_facade_raises_a_fresh_failure(self, kind, bounds, dead):
        """``call()`` raises the value its call settled with: created by
        the transport, never raised before — so its traceback starts at
        the facade and it chains to nothing — and dropped once the
        catching process has delivered it."""
        env, cluster = make()
        a, b, _ = cluster.nodes

        def slow(payload):
            yield env.timeout(5.0)

        b.register("slow", slow)
        if dead:
            cluster.kill(b.node_id)

        seen = {}

        def client():
            try:
                yield from cluster.call(a, b, "slow", **bounds)
            except Exception as exc:
                seen["frames"] = [frame.name for frame in
                                  traceback.extract_tb(exc.__traceback__)]
                seen["chained"] = (exc.__context__, exc.__cause__)
                return exc

        exc = env.run(until=env.process(client()))
        assert type(exc) is kind
        assert seen == {"frames": ["client", "call"], "chained": (None, None)}
        assert exc.__traceback__ is None

    def test_slow_callee_times_out_without_exception_context(self):
        env, cluster = make()
        a, b, _ = cluster.nodes

        def slow(payload):
            yield env.timeout(5.0)

        b.register("slow", slow)

        def client():
            try:
                yield from cluster.call(a, b, "slow", timeout=1.0)
            except RpcTimeout as exc:
                return env.now, exc.__context__

        assert env.run(until=env.process(client())) == (1.0, None)
        assert watching(cluster)[1] == 0

    def test_hedge_loser_drains_and_leaves_no_watcher(self):
        """Nobody cancels the loser of a race: its watch stays until it
        settles with its own response, and then it is gone."""
        env, cluster = make()
        a, b, c = cluster.nodes
        b.register("echo", echo)

        def slow(payload):
            yield env.timeout(0.5)
            return "late"

        c.register("echo", slow)

        def client():
            primary = cluster.call_async(a, b, "echo", "fast", timeout=10.0)
            hedge = cluster.call_async(a, c, "echo", "slow", timeout=10.0)
            assert watching(cluster)[1] == 2
            first = yield primary
            assert watching(cluster)[1] == 1
            return first, hedge

        first, hedge = env.run(until=env.process(client()))
        assert first == "fast" and not hedge.triggered
        env.run(until=1.0)   # the loser drains server-side, quietly
        assert hedge.value == "late"
        assert watching(cluster)[1] == 0
        del hedge
        assert live(env, AsyncCall) == 0
