"""A Cassandra storage node: local LSM engine + replica verbs.

Every node is also a potential coordinator; the coordination logic lives
in :mod:`repro.cassandra.coordinator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.cassandra.coordinator import Coordinator
from repro.cassandra.hints import HintStore
from repro.cassandra.partitioner import TokenRing
from repro.cluster.node import Node
from repro.cluster.topology import Cluster, DeadlineExceeded
from repro.sim.kernel import AnyOf
from repro.sim.resources import BoundedResource
from repro.storage.lsm import LocalDiskMedium, LsmTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.deployment import CassandraSpec

__all__ = ["CassandraNode"]

#: CPU charged per replica-verb invocation (StorageProxy bookkeeping).
_VERB_CPU_S = 1.0e-5


class CassandraNode:
    """One ring member: replica storage + request coordination."""

    def __init__(self, cluster: Cluster, node: Node, ring: TokenRing,
                 spec: "CassandraSpec", rng, placement=None) -> None:
        from repro.cassandra.multidc import SimpleStrategy
        self.cluster = cluster
        self.node = node
        self.ring = ring
        self.spec = spec
        self.placement = placement or SimpleStrategy(ring, spec.replication)
        self.tree = LsmTree(node.env, node, LocalDiskMedium(node),
                            spec.storage, name=f"cassandra{node.node_id}")
        self.hints = HintStore(self, spec.hint_replay_interval_s)
        self.coordinator = Coordinator(self, rng)
        #: Bounded replica-stage pool (concurrent_reads/writes analogue).
        #: ``None`` when ``max_handler_queue`` is unset — the pre-defense
        #: unbounded behaviour, so existing experiments are unchanged.
        self.replica_pool: Optional[BoundedResource] = None
        if spec.max_handler_queue is not None:
            self.replica_pool = BoundedResource(
                node.env, capacity=spec.handler_slots,
                max_queue=spec.max_handler_queue)
        self.ops = {"mutate": 0, "read_data": 0, "read_digest": 0, "scan": 0}
        node.register("c.mutate", self._handle_mutate)
        node.register("c.read_data", self._handle_read_data)
        node.register("c.read_digest", self._handle_read_digest)
        node.register("c.scan", self._handle_scan)

    # -- replica-stage admission ---------------------------------------

    def _acquire_slot(self, deadline: Optional[float]) -> Generator:
        """Claim a replica-stage slot (or ``None`` when pools are off).

        Raises :class:`~repro.sim.resources.Overloaded` synchronously when
        the bounded queue is full; when the request's propagated deadline
        expires while still queued, the slot claim is withdrawn (lazy
        deletion) and :class:`DeadlineExceeded` is raised — the queued
        work never runs.
        """
        pool = self.replica_pool
        if pool is None:
            return None
        req = pool.request()
        if req.triggered:
            return req
        if deadline is None:
            yield req
            return req
        remaining = deadline - self.node.env.now
        if remaining <= 0:
            req.cancel()
            raise DeadlineExceeded("deadline spent before replica queue")
        timer = self.node.env.timeout(remaining)
        outcome = yield AnyOf(self.node.env, [req, timer])
        if req in outcome:
            return req
        req.cancel()
        raise DeadlineExceeded("deadline expired in replica queue")

    def _release_slot(self, slot) -> None:
        if slot is not None:
            self.replica_pool.release(slot)

    # -- replica verbs -------------------------------------------------

    def _handle_mutate(self, payload) -> Generator:
        """Apply one mutation: commit log + memtable."""
        key, value, size, timestamp, *rest = payload
        deadline = rest[0] if rest else None
        self.ops["mutate"] += 1
        slot = yield from self._acquire_slot(deadline)
        try:
            # The verb's CPU charge rides the same core reservation as
            # the storage-engine put (one timeout event, same total
            # service time).
            yield from self.tree.put(key, value, size, timestamp,
                                     extra_cpu_s=_VERB_CPU_S)
        finally:
            self._release_slot(slot)
        return True

    def _handle_read_data(self, payload) -> Generator:
        """Full read: returns ``(value, timestamp)`` or None."""
        key, deadline = (payload if isinstance(payload, tuple)
                         else (payload, None))
        self.ops["read_data"] += 1
        slot = yield from self._acquire_slot(deadline)
        try:
            result = yield from self.tree.get(key, extra_cpu_s=_VERB_CPU_S)
        finally:
            self._release_slot(slot)
        return result

    def _handle_read_digest(self, payload) -> Generator:
        """Digest read: same local I/O as a data read, tiny response.

        The digest is modelled as the newest local timestamp — two
        replicas' digests match exactly when their newest versions match.
        """
        key, deadline = (payload if isinstance(payload, tuple)
                         else (payload, None))
        self.ops["read_digest"] += 1
        slot = yield from self._acquire_slot(deadline)
        try:
            result = yield from self.tree.get(key, extra_cpu_s=_VERB_CPU_S)
        finally:
            self._release_slot(slot)
        return None if result is None else result[1]

    def _handle_scan(self, payload) -> Generator:
        """Token-order scan over this node's local range."""
        start_key, limit, *rest = payload
        deadline = rest[0] if rest else None
        self.ops["scan"] += 1
        slot = yield from self._acquire_slot(deadline)
        try:
            rows = yield from self.tree.scan(start_key, limit,
                                             extra_cpu_s=_VERB_CPU_S)
        finally:
            self._release_slot(slot)
        return rows

    # -- local fast paths (coordinator == replica) -----------------------

    def local_mutate(self, key: str, value, size: int, timestamp: float,
                     deadline: Optional[float] = None) -> Generator:
        result = yield from self._handle_mutate(
            (key, value, size, timestamp, deadline))
        return result

    def local_read_data(self, key: str,
                        deadline: Optional[float] = None) -> Generator:
        result = yield from self._handle_read_data((key, deadline))
        return result

    def local_read_digest(self, key: str,
                          deadline: Optional[float] = None) -> Generator:
        result = yield from self._handle_read_digest((key, deadline))
        return result

    def newest_timestamp(self, key: str) -> Optional[float]:
        """Zero-cost inspection for tests/probes (no simulated I/O)."""
        best: Optional[float] = None
        for memtable in [self.tree.active, *self.tree.flushing]:
            found = memtable.get(key)
            if found is not None and (best is None or found[1] > best):
                best = found[1]
        for table in self.tree.sstables:
            found = table.get(key)
            if found is not None and (best is None or found[1] > best):
                best = found[1]
        return best
