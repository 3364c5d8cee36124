"""A Cassandra storage node: local LSM engine + replica verbs.

Every node is also a potential coordinator; the coordination logic lives
in :mod:`repro.cassandra.coordinator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cassandra.coordinator import Coordinator
from repro.cassandra.hints import HintStore
from repro.cluster.disk import FOREGROUND
from repro.cluster.node import Node
from repro.cluster.topology import DeadlineExceeded
from repro.sim.kernel import Event
from repro.sim.resources import BoundedResource, serve
from repro.storage.lsm import LocalDiskMedium, LsmTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.deployment import CassandraCluster

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

    def __init__(self, deployment: "CassandraCluster", node: Node,
                 rng) -> None:
        self.cluster = deployment.cluster
        self.node = node
        self.config = deployment.config
        self.placement = deployment.placement
        self.tree = LsmTree(node.env, node, LocalDiskMedium(node),
                            deployment.storage,
                            name=f"cassandra{node.node_id}")
        self.hints = HintStore(self, self.config.hint_replay_interval_s)
        self.coordinator = Coordinator(self, deployment.tail, rng)
        #: Bounded replica-stage pool (concurrent_reads/writes analogue).
        #: ``None`` when ``max_handler_queue`` is unset — the pre-defense
        #: unbounded behaviour, so existing experiments are unchanged.
        self.replica_pool: Optional[BoundedResource] = None
        tail = deployment.tail
        if tail.max_handler_queue is not None:
            self.replica_pool = BoundedResource(
                node.env, capacity=tail.handler_slots,
                max_queue=tail.max_handler_queue)
        self.ops = {"mutate": 0, "read_data": 0, "read_digest": 0, "scan": 0}
        node.register("c.mutate", self._handle_mutate)
        node.register("c.read_data", self._handle_read_data)
        node.register("c.read_digest", self._handle_read_digest)
        node.register("c.scan", self._handle_scan)

    # -- replica verbs -------------------------------------------------
    #
    # Every verb is one :func:`~repro.sim.resources.serve` call through
    # the replica stage: the storage engine's completion event where the
    # stage is unbounded, that operation behind the stage's admission
    # where it is bounded — the slot is claimed, or the request shed,
    # before the engine books any CPU.  Neither costs a process.  The
    # verb's CPU charge rides the same core reservation as the engine
    # operation (one timeout event, same total service time).

    def _handle_mutate(self, payload):
        """Apply one mutation: commit log + memtable.  The ack carries
        no payload."""
        key, value, size, timestamp, *rest = payload
        self.ops["mutate"] += 1
        return serve(self.node.env, self.replica_pool,
                     rest[0] if rest else None, DeadlineExceeded,
                     self.tree.put, (key, value, size, timestamp, _VERB_CPU_S))

    def _handle_read_data(self, payload):
        """Full read: answers ``(value, timestamp)`` or None."""
        key, deadline = payload
        self.ops["read_data"] += 1
        return serve(self.node.env, self.replica_pool, deadline,
                     DeadlineExceeded, self.tree.get,
                     (key, FOREGROUND, _VERB_CPU_S))

    def _handle_read_digest(self, payload):
        """Digest read: same local I/O as a data read, tiny response.

        The digest is modelled as the newest local timestamp — two
        replicas' digests match exactly when their newest versions match.
        """
        key, deadline = payload
        self.ops["read_digest"] += 1
        return serve(self.node.env, self.replica_pool, deadline,
                     DeadlineExceeded, self.tree.get,
                     (key, FOREGROUND, _VERB_CPU_S), _as_digest)

    def _handle_scan(self, payload):
        """Token-order scan over this node's local range, counted once
        it has its rows."""
        start_key, limit, *rest = payload
        return serve(self.node.env, self.replica_pool,
                     rest[0] if rest else None, DeadlineExceeded,
                     self.tree.scan,
                     (start_key, limit, FOREGROUND, _VERB_CPU_S),
                     self._count_scan)

    def _count_scan(self, scan: Event) -> None:
        if scan._ok:
            self.ops["scan"] += 1

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
