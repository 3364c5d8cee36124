"""RegionServer: WAL group commit + region request handlers."""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.node import Node
from repro.cluster.topology import DeadlineExceeded
from repro.hdfs.block import DfsFile
from repro.hdfs.client import WAL_SEGMENT_BYTES, DfsClient
from repro.hbase.region import Region
from repro.sim.kernel import AnyOf, Environment, Event, ModelledFailure
from repro.sim.resources import BoundedResource, Resource

__all__ = ["GroupCommitWal", "NotServingRegion", "RegionServer"]

#: CPU charged per request on the RegionServer (handler bookkeeping).
_HANDLER_CPU_S = 1.2e-5


class NotServingRegion(ModelledFailure):
    """The addressed region is not here, or no longer covers the key.

    HBase's ``NotServingRegionException``: the client's META cache is
    stale (the region moved, or a split shrank it); the client refreshes
    its region map and retries against the current owner.
    """


class GroupCommitWal:
    """One WAL per RegionServer, written through the HDFS pipeline.

    Appends from concurrent handlers are batched: a writer loop drains
    everything that accumulated since the last round and pushes it as one
    append (HBase's FSHLog ring-buffer sync batching), and up to
    ``pipeline_depth`` rounds travel the HDFS pipeline concurrently (the
    real WAL streams packets without waiting for the previous ack).
    Batching plus in-flight overlap is why HBase's *throughput* stays flat
    as the replication factor grows even though each individual ack chain
    gets longer.
    """

    def __init__(self, env: Environment, dfs: DfsClient, name: str,
                 sync: bool = False, pipeline_depth: int = 4) -> None:
        self.env = env
        self.dfs = dfs
        self.name = name
        self.sync = sync
        self._pending: list[tuple[int, Event]] = []
        self._kick: Optional[Event] = None
        self._wal_file: Optional[DfsFile] = None
        self._in_flight = Resource(env, capacity=pipeline_depth)
        self.batches = 0
        self.appends = 0
        env.process(self._writer(), name=f"wal-{name}")

    def append(self, size: int) -> Generator:
        """Enqueue ``size`` bytes; returns once they are pipeline-acked."""
        done = self.env.event()
        self._pending.append((size, done))
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed()
        yield done

    def _writer(self) -> Generator:
        while True:
            if not self._pending:
                self._kick = self.env.event()
                yield self._kick
                self._kick = None
            batch, self._pending = self._pending, []
            if self._wal_file is None or \
                    self._wal_file.size_bytes >= WAL_SEGMENT_BYTES:
                self._wal_file = yield from self.dfs.create(f"wal/{self.name}")
            slot = self._in_flight.request()
            yield slot
            self.env.process(self._round(batch, self._wal_file, slot),
                             name=f"wal-round-{self.name}")

    def _round(self, batch: list[tuple[int, Event]], wal_file: DfsFile,
               slot) -> Generator:
        try:
            total = sum(size for size, _ in batch)
            yield from self.dfs.append(wal_file, total, sync=self.sync)
            self.batches += 1
            self.appends += len(batch)
            for _, done in batch:
                done.succeed()
        finally:
            self._in_flight.release(slot)


class RegionServer:
    """Serves get/put/scan for the regions assigned to it."""

    def __init__(self, env: Environment, node: Node, dfs: DfsClient,
                 wal_sync: bool = False, handler_slots: int = 16,
                 max_handler_queue: Optional[int] = None) -> None:
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

    def _region(self, region_id: int, key: Optional[str] = None) -> Region:
        region = self.regions.get(region_id)
        if region is None:
            raise NotServingRegion(
                f"region {region_id} not on server {self.node.node_id}")
        if key is not None and not region.covers(key):
            # A split shrank the region after the client resolved it —
            # applying the op here would strand the write outside the
            # range readers are routed to.
            raise NotServingRegion(
                f"region {region_id} no longer covers key {key!r}")
        return region

    def _wait_available(self, region: Region) -> Generator:
        if region.available_at > self.env.now:
            yield self.env.timeout(region.available_at - self.env.now)

    def _acquire_slot(self, deadline: Optional[float]) -> Generator:
        """Claim a handler slot (``None`` when pools are unbounded).

        Raises :class:`~repro.sim.resources.Overloaded` synchronously on a
        full call queue; a request whose propagated deadline expires while
        queued withdraws its claim (lazy deletion) and fails with
        :class:`DeadlineExceeded` without ever running.
        """
        pool = self.handler_pool
        if pool is None:
            return None
        req = pool.request()
        if req.triggered:
            return req
        if deadline is None:
            yield req
            return req
        remaining = deadline - self.env.now
        if remaining <= 0:
            req.cancel()
            raise DeadlineExceeded("deadline spent before handler queue")
        timer = self.env.timeout(remaining)
        outcome = yield AnyOf(self.env, [req, timer])
        if req in outcome:
            return req
        req.cancel()
        raise DeadlineExceeded("deadline expired in handler call queue")

    def _release_slot(self, slot) -> None:
        if slot is not None:
            self.handler_pool.release(slot)

    def _handle_put(self, payload) -> Generator:
        region_id, key, value, size, timestamp, *rest = payload
        deadline = rest[0] if rest else None
        region = self._region(region_id, key)
        slot = yield from self._acquire_slot(deadline)
        try:
            yield from self._wait_available(region)
            # Handler CPU rides the same core reservation as the engine
            # put (one timeout event, same total service time).
            yield from region.tree.put_inline(key, value, size, timestamp,
                                              extra_cpu_s=_HANDLER_CPU_S)
            self.ops["put"] += 1
        finally:
            self._release_slot(slot)
        return True

    def _handle_get(self, payload):
        """Serve one get: the engine's completion event when nothing can
        make the request wait first — no bounded pool, region open — so
        it costs no process; the slot-then-operate generator otherwise."""
        region_id, key, *rest = payload
        region = self._region(region_id, key)
        if self.handler_pool is not None \
                or region.available_at > self.env._now:
            return self._get_queued(region, key, rest[0] if rest else None)
        read = region.tree.get(key, extra_cpu_s=_HANDLER_CPU_S)
        if read.callbacks is None:
            self._count_get(read)
        else:
            read.callbacks.append(self._count_get)
        return read

    def _count_get(self, read: Event) -> None:
        if read._ok:
            self.ops["get"] += 1

    def _get_queued(self, region: Region, key: str,
                    deadline: Optional[float]) -> Generator:
        slot = yield from self._acquire_slot(deadline)
        try:
            yield from self._wait_available(region)
            result = yield from region.tree.get_inline(
                key, extra_cpu_s=_HANDLER_CPU_S)
            self.ops["get"] += 1
        finally:
            self._release_slot(slot)
        return result

    def _handle_scan(self, payload) -> Generator:
        region_id, start_key, limit, *rest = payload
        deadline = rest[0] if rest else None
        region = self._region(region_id, start_key)
        slot = yield from self._acquire_slot(deadline)
        try:
            yield from self._wait_available(region)
            rows = yield from region.tree.scan(
                start_key, limit, extra_cpu_s=_HANDLER_CPU_S)
            self.ops["scan"] += 1
        finally:
            self._release_slot(slot)
        return rows
