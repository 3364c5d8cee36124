"""A Cassandra storage node: local LSM engine + replica verbs.

Every node is also a potential coordinator; the coordination logic lives
in :mod:`repro.cassandra.coordinator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.cassandra.coordinator import Coordinator
from repro.cassandra.hints import HintStore
from repro.cassandra.partitioner import TokenRing
from repro.cluster.disk import FOREGROUND
from repro.cluster.node import Node
from repro.cluster.topology import Cluster, DeadlineExceeded
from repro.sim.kernel import AnyOf, Event
from repro.sim.resources import BoundedResource
from repro.storage.lsm import LocalDiskMedium, LsmTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.deployment import CassandraSpec

__all__ = ["CassandraNode"]

#: CPU charged per replica-verb invocation (StorageProxy bookkeeping).
_VERB_CPU_S = 1.0e-5


def _as_digest(read: Event) -> None:
    """Turn a completed row read into the digest read it stands for."""
    found = read._value
    if read._ok and found is not None:
        read._value = found[1]


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
        try:
            if deadline is None:
                yield req
                return req
            remaining = deadline - self.node.env.now
            if remaining <= 0:
                raise DeadlineExceeded("deadline spent before replica queue")
            timer = self.node.env.timeout(remaining)
            outcome = yield AnyOf(self.node.env, [req, timer])
            if req in outcome:
                return req
            raise DeadlineExceeded("deadline expired in replica queue")
        except BaseException:
            # Expired — or interrupted while queued (a hedge loser on the
            # coordinator's own node): the claim goes, granted or not.
            req.cancel()
            raise

    def _release_slot(self, slot) -> None:
        if slot is not None:
            self.replica_pool.release(slot)

    # -- replica verbs -------------------------------------------------

    def _pooled(self, deadline: Optional[float], op, *args) -> Generator:
        """Slot, then operate: every verb's path when the replica stage
        is bounded (a scan's and a cancellable read's always).  The
        slot is claimed — or the request shed — before the engine books
        any CPU.  A read's steps (``op``: the tree's generator form) run
        inside this process, so a cancelled hedged read is interrupted
        as one unit, slot, disk queue and all."""
        slot = yield from self._acquire_slot(deadline)
        try:
            result = yield from op(*args)
        finally:
            self._release_slot(slot)
        return result

    # A verb handler returns the storage engine's completion event when
    # the replica stage is unbounded — the request then costs no process
    # anywhere — and the ``_pooled`` generator when it is not.  The
    # verb's CPU charge rides the same core reservation as the engine
    # operation (one timeout event, same total service time).

    def _handle_mutate(self, payload):
        """Apply one mutation: commit log + memtable.  The ack carries
        no payload."""
        key, value, size, timestamp, *rest = payload
        self.ops["mutate"] += 1
        if self.replica_pool is None:
            return self.tree.put(key, value, size, timestamp, _VERB_CPU_S)
        return self._pooled(rest[0] if rest else None, self.tree.put,
                            key, value, size, timestamp, _VERB_CPU_S)

    def _handle_read_data(self, payload, cancellable: bool = False):
        """Full read: answers ``(value, timestamp)`` or None.

        ``cancellable`` is the coordinator asking for its *own* hedged
        read as a process even with no pool to queue in: losing the
        hedge interrupts it, and the interrupt has to reach the disk
        queue the lookup may be standing in.  (A remote read needs no
        such thing — cancellation does not cross the wire.)
        """
        key, deadline = (payload if isinstance(payload, tuple)
                         else (payload, None))
        self.ops["read_data"] += 1
        if self.replica_pool is None and not cancellable:
            return self.tree.get(key, FOREGROUND, _VERB_CPU_S)
        return self._pooled(deadline, self.tree.get_inline, key, FOREGROUND,
                            _VERB_CPU_S)

    def _handle_read_digest(self, payload):
        """Digest read: same local I/O as a data read, tiny response.

        The digest is modelled as the newest local timestamp — two
        replicas' digests match exactly when their newest versions match.
        """
        key, deadline = (payload if isinstance(payload, tuple)
                         else (payload, None))
        self.ops["read_digest"] += 1
        if self.replica_pool is not None:
            return self._pooled(deadline, self._digest_inline, key)
        read = self.tree.get(key, FOREGROUND, _VERB_CPU_S)
        # First subscriber: whoever waits for the read sees the digest.
        if read.callbacks is None:
            _as_digest(read)
        else:
            read.callbacks.append(_as_digest)
        return read

    def _digest_inline(self, key: str) -> Generator:
        found = yield from self.tree.get_inline(key, FOREGROUND, _VERB_CPU_S)
        return None if found is None else found[1]

    def _handle_scan(self, payload) -> Generator:
        """Token-order scan over this node's local range."""
        start_key, limit, *rest = payload
        self.ops["scan"] += 1
        return self._pooled(rest[0] if rest else None, self.tree.scan,
                            start_key, limit, FOREGROUND, _VERB_CPU_S)

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
