"""Wires a full Cassandra deployment onto a simulated cluster."""

from __future__ import annotations

from typing import Generator, Optional

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.multidc import NetworkTopologyStrategy, SimpleStrategy
from repro.cassandra.node import CassandraNode
from repro.cassandra.partitioner import TokenRange, TokenRing
from repro.cluster.disk import BACKGROUND
from repro.cluster.node import Node
from repro.cluster.topology import Cluster, TailDefenseConfig
from repro.keyspace import token_of
from repro.storage.lsm import StorageSpec, tree_stats

__all__ = ["CassandraCluster"]

#: Virtual nodes per physical node (Cassandra 2.0 defaults to 256;
#: scaled down with everything else — placement statistics are already
#: uniform at 16).
VNODES = 16
#: Streaming granularity for bootstrap/decommission transfers.
STREAM_CHUNK_BYTES = 1 << 20


class CassandraCluster:
    """A Cassandra ring deployed over a :class:`~repro.cluster.topology.Cluster`.

    The cluster's servers join the ring and its first client node hosts
    the driver (the paper's 15-server + 1-client layout on a rack).  On a
    geo cluster the placement is NetworkTopologyStrategy with
    ``cluster.geo.replication_per_dc``; on a rack it is SimpleStrategy
    with ``config.replication``.
    """

    def __init__(self, cluster: Cluster, config: CassandraConfig,
                 storage: StorageSpec, tail: TailDefenseConfig,
                 spare_nodes: int = 0) -> None:
        if not cluster.server_ids:
            raise ValueError("Cassandra needs at least one server + client node")
        self.cluster = cluster
        self.config = config
        self.storage = storage
        self.tail = tail
        self.server_nodes = [cluster.node(nid) for nid in cluster.server_ids]
        self.client_node = cluster.node(cluster.client_ids[0])
        # Trailing servers provisioned outside the initial ring: the
        # elasticity campaign bootstraps them at runtime.
        if not 0 <= spare_nodes < len(self.server_nodes):
            raise ValueError("spare_nodes must leave at least one "
                             "in-service server")
        geo = cluster.geo
        if spare_nodes and geo is not None:
            raise ValueError("spare nodes require SimpleStrategy "
                             "(elasticity is single-ring)")
        members = (self.server_nodes[:len(self.server_nodes) - spare_nodes]
                   if spare_nodes else self.server_nodes)
        self.ring = TokenRing([n.node_id for n in members], VNODES,
                              cluster.rngs.stream("ring"))
        if geo is not None:
            datacenter_of = cluster.node_datacenter
            self.placement = NetworkTopologyStrategy(
                self.ring, {n.node_id: datacenter_of[n.node_id]
                            for n in self.server_nodes},
                dict(geo.replication_per_dc))
        else:
            self.placement = SimpleStrategy(self.ring, config.replication)
        # Spare nodes get no CassandraNode yet: verb handlers register
        # once per node, so the instance is created lazily on first
        # bootstrap and reused across later re-bootstraps.
        self.nodes: dict[int, CassandraNode] = {
            n.node_id: CassandraNode(
                self, n, cluster.rngs.stream(f"cassandra.coord.{n.node_id}"))
            for n in members
        }
        #: Nodes clients may coordinate through: the ring members.
        #: Bootstrap appends the joiner (new coordinator capacity is
        #: part of scale-out's payoff); decommission removes the leaver.
        self.coordinator_nodes = list(members)
        #: (time, source_node_id, dest_node_id, bytes) per completed
        #: range stream (bootstrap/decommission transfers).
        self.streams: list[tuple[float, int, int, int]] = []
        #: The elasticity RNG stream, created on first use
        #: (:meth:`_elastic_rng`).
        self._elastic_rng_stream = None

    def replicas_of(self, key: str) -> list[int]:
        """Replica node ids for ``key`` under the configured placement."""
        return self.placement.replicas_for_key(key)

    def total_stats(self) -> dict[str, int]:
        """Aggregate coordinator statistics across the ring."""
        totals: dict[str, int] = {}
        for node in self.nodes.values():
            for stat, count in node.coordinator.stats.items():
                totals[stat] = totals.get(stat, 0) + count
        return totals

    def driver(self, node: Node, **kwargs) -> CassandraSession:
        """A driver session on ``node``."""
        return CassandraSession(self, node, **kwargs)

    def db_stats(self) -> dict:
        """Engine counters: the coordinators' totals and the storage."""
        return {"cassandra": self.total_stats(),
                **tree_stats([n.tree for n in self.nodes.values()])}

    def transfer_logs(self) -> tuple[list, list]:
        """``(range streams, region rebalances)`` so far: data streams."""
        return self.streams, []

    # -- elasticity --------------------------------------------------------

    def _elastic_rng(self):
        rng = self._elastic_rng_stream
        if rng is None:
            # Created on first use so pre-elasticity cells draw exactly
            # the same stream set as before this feature existed.
            rng = self.cluster.rngs.stream("cassandra.elastic")
            self._elastic_rng_stream = rng
        return rng

    def scale_out_candidate(self) -> Optional[int]:
        """The next spare node a scale-out would bootstrap (lowest id),
        or ``None`` while a range movement is streaming: like Cassandra
        2.0's consistent range movement, one bootstrap or decommission
        at a time."""
        if self.placement.pending:
            return None
        spares = sorted(n.node_id for n in self.server_nodes
                        if n.node_id not in self.ring.node_ids and n.alive)
        return spares[0] if spares else None

    def scale_in_candidate(self) -> Optional[int]:
        """The node a scale-in would decommission (highest live id), or
        ``None`` when removing one would drop the ring to (or below) RF
        or while a range movement is streaming."""
        if self.placement.pending \
                or len(self.ring.node_ids) <= self.config.replication:
            return None
        members = sorted(nid for nid in self.ring.node_ids
                         if self.cluster.node(nid).alive)
        if len(members) <= 1:
            return None
        return members[-1]

    def apply_scale_out(self, node_id: int) -> Generator:
        yield from self.bootstrap(node_id)

    def apply_scale_in(self, node_id: int) -> Generator:
        yield from self.decommission(node_id)

    def bootstrap(self, node_id: int) -> Generator:
        """Live-join ``node_id`` (a sim process): plan on a ring clone,
        double-write the moved arcs, stream their data, then commit.

        While streaming, writes landing in a moved arc are also sent to
        the joiner (pending ranges) and reads keep routing to the old
        replicas — which still hold everything — so no acknowledged
        write is lost across the topology change.
        """
        if self.cluster.geo is not None:
            raise ValueError("bootstrap requires SimpleStrategy")
        if node_id in self.ring.node_ids:
            raise ValueError(f"node {node_id} is already in the ring")
        if not any(n.node_id == node_id for n in self.server_nodes):
            raise ValueError(f"node {node_id} is not a provisioned server")
        node = self.cluster.node(node_id)
        if not node.alive:
            raise ValueError(f"cannot bootstrap dead node {node_id}")
        if node_id not in self.nodes:
            self.nodes[node_id] = CassandraNode(
                self, node, self.cluster.rngs.stream(
                    f"cassandra.coord.{node_id}"))
        target = self.ring.clone()
        moved = target.add_node(node_id, self._elastic_rng(),
                                self.config.replication)
        yield from self._stream_and_commit(target, moved)
        if all(n.node_id != node_id for n in self.coordinator_nodes):
            self.coordinator_nodes.append(node)
        return node_id

    def decommission(self, node_id: int) -> Generator:
        """Gracefully remove ``node_id`` (a sim process): survivors
        inheriting its arcs double-receive writes while the data streams
        off the leaving node, then the ring commits without it."""
        if self.cluster.geo is not None:
            raise ValueError("decommission requires SimpleStrategy")
        if node_id not in self.ring.node_ids:
            raise ValueError(f"node {node_id} is not in the ring")
        if len(self.ring.node_ids) <= self.config.replication:
            raise ValueError("decommission would drop the ring below the "
                             "replication factor")
        target = self.ring.clone()
        moved = target.remove_node(node_id, self.config.replication)
        yield from self._stream_and_commit(target, moved)
        self.coordinator_nodes = [n for n in self.coordinator_nodes
                                  if n.node_id != node_id]
        return node_id

    def _stream_and_commit(self, target: TokenRing,
                           moved: list[TokenRange]) -> Generator:
        """Stream every moved arc to its gainers, then adopt ``target``.

        The pending double-write window opens before the first byte
        moves and closes only after the ring has switched, so there is
        no instant at which a write can miss both the old and the new
        replica set.  On a mid-stream failure the change is abandoned:
        the old ring stays in force and the pending window closes.
        """
        pending = self.placement.pending
        pending.begin(moved)
        try:
            for arc in sorted(moved, key=lambda a: (a.start, a.end)):
                for gainer in arc.gainers:
                    source = self._stream_source(arc, gainer)
                    if source is None:
                        continue
                    yield from self._stream_range(source, gainer, arc)
            self.ring.adopt(target)
        finally:
            pending.end()

    def _stream_source(self, arc: TokenRange,
                       gainer: int) -> Optional[int]:
        """A live old replica of ``arc`` to stream from (never the gainer)."""
        for replica in arc.old_replicas:
            if replica != gainer and replica in self.nodes \
                    and self.cluster.node(replica).alive:
                return replica
        return None

    def _stream_range(self, source_id: int, dest_id: int,
                      arc: TokenRange) -> Generator:
        """Ship one arc's data source -> dest over disks and NICs.

        Sequential BACKGROUND-priority I/O on both ends (real streaming
        is throttled below foreground requests) through the shared
        network, so a transfer contends with serving traffic exactly
        where the hardware would make it contend.
        """
        source, dest = self.nodes[source_id], self.nodes[dest_id]
        entries = [e for e in source.tree.snapshot_entries()
                   if arc.contains(token_of(e[0]))]
        if not entries:
            return
        total = sum(e[3] for e in entries)
        chunk = STREAM_CHUNK_BYTES
        src_node, dst_node = source.node, dest.node
        sent = 0
        while sent < total:
            step = min(chunk, total - sent)
            yield from src_node.disk.read(step, sequential=True,
                                          priority=BACKGROUND)
            yield self.cluster.leg(src_node, dst_node, step,
                                   on_arrival=True)
            yield from dst_node.disk.write(step, sequential=True,
                                           priority=BACKGROUND)
            sent += step
        dest.tree.ingest_run(entries)
        self.streams.append((self.cluster.env.now, source_id, dest_id,
                             total))
