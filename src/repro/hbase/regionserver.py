"""RegionServer: WAL group commit + region request handlers."""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.disk import FOREGROUND
from repro.cluster.node import Node
from repro.cluster.topology import DeadlineExceeded
from repro.hdfs.block import DfsFile
from repro.hdfs.client import WAL_SEGMENT_BYTES, DfsClient
from repro.hbase.region import Region
from repro.sim.kernel import (_PENDING, Environment, Event, Initialize,
                              ModelledFailure, Process)
from repro.sim.resources import BoundedResource, Resource, serve

__all__ = ["GroupCommitWal", "NotServingRegion", "RegionServer"]

#: CPU charged per request on the RegionServer (handler bookkeeping).
_HANDLER_CPU_S = 1.2e-5
#: WAL rounds that may travel the HDFS pipeline at once.
PIPELINE_DEPTH = 4


class NotServingRegion(ModelledFailure):
    """The addressed region is not on this server.

    HBase's ``NotServingRegionException``: the client's META cache is
    stale (the region moved); the client refreshes its region map and
    retries against the current owner.
    """


class GroupCommitWal:
    """One WAL per RegionServer, written through the HDFS pipeline.

    Appends from concurrent handlers are batched: the writer drains
    everything that accumulated since the last round and pushes it as one
    append (HBase's FSHLog ring-buffer sync batching), and up to
    :data:`PIPELINE_DEPTH` rounds travel the HDFS pipeline concurrently (the
    real WAL streams packets without waiting for the previous ack).
    Batching plus in-flight overlap is why HBase's *throughput* stays flat
    as the replication factor grows even though each individual ack chain
    gets longer.

    The writer is a pump, not a process: :meth:`_pump` runs whenever the
    writer has nothing to wait for, and each thing it waits for — the
    kick of the first append after an idle spell, a contended in-flight
    slot, a round's start — is a queue event with a callback on it.
    Only the once-per-segment roll, an RPC to the NameNode, runs as a
    small process (:meth:`_roll`).
    """

    def __init__(self, env: Environment, dfs: DfsClient, name: str,
                 sync: bool) -> None:
        self.env = env
        self.dfs = dfs
        self.name = name
        self.sync = sync
        #: Ack events of the appends no round has taken yet, in arrival
        #: order, and the bytes they add up to.
        self._pending: list[Event] = []
        self._pending_bytes = 0
        self._kick: Optional[Event] = None
        self._wal_file: Optional[DfsFile] = None
        self._in_flight = Resource(env, capacity=PIPELINE_DEPTH)
        self.batches = 0
        self.appends = 0
        # The writer starts like the process it used to be: urgently,
        # "now", and not before — an append made ahead of that waits.
        Initialize(env, self._pump)

    def append(self, size: int) -> Event:
        """Enqueue ``size`` bytes; the returned event fires once they
        are pipeline-acked (``yield`` it)."""
        done = Event(self.env)
        self._pending.append(done)
        self._pending_bytes += size
        kick = self._kick
        if kick is not None and kick._value is _PENDING:
            kick.succeed()
        return done

    def _pump(self, _event: Optional[Event] = None) -> None:
        """The writer's loop body: send every batch that can go now,
        then wait — for a kick when nothing is pending, otherwise for
        whatever the batch in hand needs (a new segment, a slot)."""
        self._kick = None
        while self._pending:
            batch = _Round(self, self._pending, self._pending_bytes)
            self._pending = []
            self._pending_bytes = 0
            file = self._wal_file
            if file is None or file.size_bytes >= WAL_SEGMENT_BYTES:
                Process(self.env, self._roll(batch), f"wal-roll-{self.name}",
                        True)
                return
            if not batch.claim_slot(file):
                return
        self._kick = kick = Event(self.env)
        kick.callbacks.append(self._pump)

    def _roll(self, batch: "_Round") -> Generator:
        """Open the next segment for ``batch``; appends that arrive
        meanwhile join the batch after it.  A failed ``nn.create`` fails
        this process, which nobody waits on: the run stops."""
        self._wal_file = yield from self.dfs.create(f"wal/{self.name}")
        if batch.claim_slot(self._wal_file):
            self._pump()


class _Round:
    """One batch of appends on its way through the pipeline: claim an
    in-flight slot, start (an ``Initialize`` event, as when a round was a
    process — its place in the schedule is part of the model), append,
    and on the ack wake every put of the batch, in order, *then* free
    the slot (whose grant may wake the writer)."""

    __slots__ = ("wal", "acks", "size", "file", "slot")

    def __init__(self, wal: GroupCommitWal, acks: list[Event],
                 size: int) -> None:
        self.wal = wal
        self.acks = acks
        self.size = size

    def claim_slot(self, file: DfsFile) -> bool:
        """Returns whether the slot was free (the round is on its way);
        if not, the writer goes on when it is granted."""
        self.file = file
        wal = self.wal
        self.slot = slot = wal._in_flight.request()
        if slot.callbacks is None:
            Initialize(wal.env, self._start)
            return True
        slot.callbacks.append(self._granted)
        return False

    def _granted(self, _slot: Event) -> None:
        Initialize(self.wal.env, self._start)
        self.wal._pump()

    def _start(self, _init: Event) -> None:
        wal = self.wal
        try:
            write = wal.dfs.append(self.file, self.size, wal.sync)
        except BaseException:
            # No live replica: the slot goes back, and the error stops
            # the run from inside this dispatch.
            wal._in_flight.release(self.slot)
            raise
        write.callbacks.append(self._acked)

    def _acked(self, write: Event) -> None:
        wal = self.wal
        if write._ok:
            acks = self.acks
            wal.batches += 1
            wal.appends += len(acks)
            for done in acks:
                done.succeed()
        wal._in_flight.release(self.slot)


class RegionServer:
    """Serves get/put/scan for the regions assigned to it."""

    def __init__(self, env: Environment, node: Node, dfs: DfsClient,
                 wal_sync: bool, handler_slots: int,
                 max_handler_queue: Optional[int]) -> None:
        self.env = env
        self.node = node
        self.dfs = dfs
        self.wal = GroupCommitWal(env, dfs, f"rs{node.node_id}", sync=wal_sync)
        #: region_id -> Region, maintained by the HMaster.
        self.regions: dict[int, Region] = {}
        #: Bounded handler pool (hbase.regionserver.handler.count plus a
        #: bounded call queue).  ``None`` when ``max_handler_queue`` is
        #: unset — the pre-defense unbounded behaviour.
        self.handler_pool: Optional[BoundedResource] = None
        if max_handler_queue is not None:
            self.handler_pool = BoundedResource(
                env, capacity=handler_slots, max_queue=max_handler_queue)
        self.ops = {"put": 0, "get": 0, "scan": 0}
        node.register("rs.put", self._handle_put)
        node.register("rs.get", self._handle_get)
        node.register("rs.scan", self._handle_scan)

    def _region(self, region_id: int) -> Region:
        try:
            return self.regions[region_id]
        except KeyError:
            raise NotServingRegion(
                f"region {region_id} not on server {self.node.node_id}"
            ) from None

    # -- verbs ---------------------------------------------------------
    #
    # Every verb is one :func:`~repro.sim.resources.serve` call: the
    # handler slot (a request in the call queue can be refused — right
    # here — or expire), then the region (a reopening one holds the
    # operation back), then the engine, with the verb's counter as the
    # operation's first subscriber (by the time the transport books the
    # response leg the operation is counted, the mutation applied, the
    # memtable rotated).  A request nothing can make wait — no bounded
    # pool, region open — is the engine's own event.  No verb costs a
    # process; a get or a scan that misses the block cache finishes its
    # walk as one.  Handler CPU rides the same core reservation as the
    # operation (one timeout event, same total service time).

    def _handle_put(self, payload):
        region_id, key, value, size, timestamp, *rest = payload
        region = self._region(region_id)
        return serve(self.env, self.handler_pool, rest[0] if rest else None,
                     DeadlineExceeded, region.tree.put,
                     (key, value, size, timestamp, _HANDLER_CPU_S),
                     self._count_put, region)

    def _count_put(self, put: Event) -> None:
        if put._ok:
            self.ops["put"] += 1
            put._value = True  # the reply: the engine's event is ours alone

    def _handle_get(self, payload):
        region_id, key, *rest = payload
        region = self._region(region_id)
        return serve(self.env, self.handler_pool, rest[0] if rest else None,
                     DeadlineExceeded, region.tree.get,
                     (key, FOREGROUND, _HANDLER_CPU_S), self._count_get,
                     region)

    def _count_get(self, read: Event) -> None:
        if read._ok:
            self.ops["get"] += 1

    def _handle_scan(self, payload):
        region_id, start_key, limit, *rest = payload
        region = self._region(region_id)
        return serve(self.env, self.handler_pool, rest[0] if rest else None,
                     DeadlineExceeded, region.tree.scan,
                     (start_key, limit, FOREGROUND, _HANDLER_CPU_S),
                     self._count_scan, region)

    def _count_scan(self, scan: Event) -> None:
        if scan._ok:
            self.ops["scan"] += 1
