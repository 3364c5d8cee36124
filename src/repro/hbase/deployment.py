"""Wires a full HBase deployment onto a simulated cluster.

Topology per the paper: the last node runs HMaster + NameNode and hosts
the YCSB client; every other node runs a RegionServer co-located with a
DataNode.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cluster.topology import Cluster
from repro.keyspace import KEY_DOMAIN
from repro.hbase.master import HMaster
from repro.hbase.region import Region
from repro.hbase.regionserver import RegionServer
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.storage.lsm import StorageSpec

__all__ = ["HBaseCluster", "HBaseSpec"]


@dataclass(frozen=True)
class HBaseSpec:
    """Deployment knobs for one experiment cell."""

    #: HDFS replication factor — the paper's replication knob for HBase.
    replication: int = 3
    regions_per_server: int = 2
    storage: StorageSpec = field(default_factory=StorageSpec)
    #: Durability ablation: ack WAL pipeline packets from disk, not memory.
    wal_sync: bool = False
    failure_detection_s: float = 3.0
    region_recovery_s: float = 2.0
    #: Unavailability per *planned* region move (rebalance, activate,
    #: decommission): a graceful close flushes the MemStore and
    #: reopens on the target, so there is no WAL to replay — a
    #: sub-second window where crash failover pays ``region_recovery_s``.
    region_move_s: float = 0.25
    #: Concurrent RPC handlers per RegionServer (hbase.regionserver
    #: .handler.count analogue).  Only enforced when
    #: ``max_handler_queue`` is set.
    handler_slots: int = 16
    #: Bounded handler call-queue depth; requests beyond it are shed with
    #: :class:`~repro.sim.resources.Overloaded`.  ``None`` = unbounded
    #: (the pre-defense behaviour).
    max_handler_queue: Optional[int] = None
    #: Trailing server nodes provisioned but out of service (no initial
    #: regions); the elasticity campaign activates them at runtime.
    spare_servers: int = 0


class HBaseCluster:
    """An HBase instance deployed over a :class:`~repro.cluster.topology.Cluster`."""

    def __init__(self, cluster: Cluster, spec: HBaseSpec) -> None:
        if cluster.spec.n_nodes < 2:
            raise ValueError("HBase needs at least one server + one master node")
        self.cluster = cluster
        self.spec = spec
        self.master_node = cluster.node(cluster.spec.n_nodes - 1)
        self.server_nodes = cluster.nodes[:-1]

        self.datanodes = {n.node_id: DataNode(n) for n in self.server_nodes}
        self.namenode = NameNode(self.master_node, list(self.datanodes),
                                 cluster.rngs.stream("hdfs.placement"))
        self.regionservers: dict[int, RegionServer] = {}
        for n in self.server_nodes:
            dfs = DfsClient(cluster, self.namenode, self.datanodes, n,
                            spec.replication,
                            cluster.rngs.stream(f"hdfs.client.{n.node_id}"))
            self.regionservers[n.node_id] = RegionServer(
                cluster.env, n, dfs, wal_sync=spec.wal_sync,
                handler_slots=spec.handler_slots,
                max_handler_queue=spec.max_handler_queue)

        if not 0 <= spec.spare_servers < len(self.server_nodes):
            raise ValueError("spare_servers must leave at least one "
                             "in-service RegionServer")
        spare_ids = [n.node_id for n in
                     self.server_nodes[len(self.server_nodes)
                                       - spec.spare_servers:]]

        self.regions = self._presplit()
        #: Region start tokens, parallel to ``regions`` (which
        #: ``_presplit`` builds in token order).
        self._starts = [r.start_token for r in self.regions]
        self.master = HMaster(cluster, self.master_node, self.regionservers,
                              self.regions,
                              detection_s=spec.failure_detection_s,
                              recovery_s=spec.region_recovery_s,
                              move_s=spec.region_move_s,
                              standby=spare_ids)
        servers = [s for nid, s in sorted(self.regionservers.items())
                   if nid not in spare_ids]
        for i, region in enumerate(self.regions):
            server = servers[i % len(servers)]
            region.open_on(server, spec.storage)
            self.master.assign(region, server)

    def _presplit(self) -> list[Region]:
        n_servers = len(self.server_nodes) - self.spec.spare_servers
        n_regions = n_servers * self.spec.regions_per_server
        step = KEY_DOMAIN // n_regions
        regions = []
        for i in range(n_regions):
            start = i * step
            end = (i + 1) * step if i < n_regions - 1 else KEY_DOMAIN
            regions.append(Region(i, start, end))
        return regions

    def region_for_token(self, token: int) -> Region:
        """The region owning ``token`` (bisect over the sorted starts)."""
        index = bisect.bisect_right(self._starts, token) - 1
        region = self.regions[index]
        assert region.contains(token), (token, region)
        return region

    # -- elasticity --------------------------------------------------------

    def scale_out_candidate(self) -> Optional[int]:
        """The standby server a scale-out would activate (lowest id)."""
        standby = sorted(nid for nid in self.master.standby
                         if self.cluster.node(nid).alive)
        return standby[0] if standby else None

    def scale_in_candidate(self) -> Optional[int]:
        """The server a scale-in would drain (highest live id), or
        ``None`` when only one in-service server would remain."""
        active = sorted(nid for nid, s in self.regionservers.items()
                        if s.node.alive and nid not in self.master.standby)
        return active[-1] if len(active) > 1 else None

    def apply_scale_out(self, node_id: int) -> Generator:
        """Activate a standby server; regions rebalanced onto it pay the
        graceful close/reopen window before the transfer counts as done."""
        self.master.activate(node_id)
        yield self.cluster.env.timeout(self.spec.region_move_s)

    def apply_scale_in(self, node_id: int) -> Generator:
        """Drain a server back to standby (same move accounting)."""
        self.master.decommission(node_id)
        yield self.cluster.env.timeout(self.spec.region_move_s)
