"""Wires a full HBase deployment onto a simulated cluster.

Topology per the paper: the cluster's client node (a rack's last node)
runs HMaster + NameNode and hosts the YCSB client; every server node
runs a RegionServer co-located with a DataNode.
"""

from __future__ import annotations

import bisect
from typing import Generator, Optional

import repro.hbase.master as hmaster
from repro.cluster.node import Node
from repro.cluster.topology import Cluster, TailDefenseConfig
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.keyspace import KEY_DOMAIN, token_of
from repro.hbase.master import HMaster
from repro.hbase.region import Region
from repro.hbase.regionserver import RegionServer
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.storage.lsm import StorageSpec, tree_stats

__all__ = ["HBaseCluster"]


class HBaseCluster:
    """An HBase instance deployed over a :class:`~repro.cluster.topology.Cluster`."""

    def __init__(self, cluster: Cluster, config: HBaseConfig,
                 storage: StorageSpec, tail: TailDefenseConfig,
                 spare_servers: int = 0) -> None:
        if not cluster.server_ids:
            raise ValueError("HBase needs at least one server + one master node")
        self.cluster = cluster
        self.config = config
        self.tail = tail
        self.master_node = cluster.node(cluster.client_ids[0])
        self.server_nodes = [cluster.node(nid) for nid in cluster.server_ids]

        self.datanodes = {n.node_id: DataNode(n) for n in self.server_nodes}
        self.namenode = NameNode(self.master_node, list(self.datanodes),
                                 cluster.rngs.stream("hdfs.placement"))
        self.regionservers: dict[int, RegionServer] = {}
        for n in self.server_nodes:
            dfs = DfsClient(cluster, self.namenode, self.datanodes, n,
                            config.replication,
                            cluster.rngs.stream(f"hdfs.client.{n.node_id}"))
            self.regionservers[n.node_id] = RegionServer(
                cluster.env, n, dfs, wal_sync=config.wal_sync,
                handler_slots=tail.handler_slots,
                max_handler_queue=tail.max_handler_queue)

        # Trailing servers provisioned but out of service (no initial
        # regions); the elasticity campaign activates them at runtime.
        if not 0 <= spare_servers < len(self.server_nodes):
            raise ValueError("spare_servers must leave at least one "
                             "in-service RegionServer")
        spare_ids = [n.node_id for n in
                     self.server_nodes[len(self.server_nodes)
                                       - spare_servers:]]

        self.regions = self._presplit(len(self.server_nodes) - spare_servers)
        #: Region start tokens, parallel to ``regions`` (which
        #: ``_presplit`` builds in token order).
        self._starts = [r.start_token for r in self.regions]
        #: key -> owning Region, filled by :meth:`region_of`.  Regions
        #: never split or merge, so a key's region never changes (a
        #: failover or rebalance moves the region, not its range).
        self._region_of_key: dict[str, Region] = {}
        self.master = HMaster(cluster, self.master_node, self.regionservers,
                              self.regions, standby=spare_ids)
        servers = [s for nid, s in sorted(self.regionservers.items())
                   if nid not in spare_ids]
        for i, region in enumerate(self.regions):
            server = servers[i % len(servers)]
            region.open_on(server, storage)
            self.master.assign(region, server)

    def _presplit(self, n_servers: int) -> list[Region]:
        n_regions = n_servers * self.config.regions_per_server
        step = KEY_DOMAIN // n_regions
        regions = []
        for i in range(n_regions):
            start = i * step
            end = (i + 1) * step if i < n_regions - 1 else KEY_DOMAIN
            regions.append(Region(i, start, end))
        return regions

    def region_of(self, key: str) -> Region:
        """The region owning ``key``; looked up once per key."""
        region = self._region_of_key.get(key)
        if region is None:
            region = self._region_of_key[key] = \
                self.region_for_token(token_of(key))
        return region

    def region_for_token(self, token: int) -> Region:
        """The region owning ``token`` (bisect over the sorted starts)."""
        index = bisect.bisect_right(self._starts, token) - 1
        region = self.regions[index]
        assert region.contains(token), (token, region)
        return region

    def driver(self, node: Node, **kwargs) -> HBaseClient:
        """A client on ``node``, its retries jittered from one stream."""
        rng = self.cluster.rngs.stream("hbase.client.backoff")
        return HBaseClient(self, node, rng=rng, **kwargs)

    def db_stats(self) -> dict:
        """Engine counters: RegionServer ops, storage and WAL commits."""
        servers = self.regionservers.values()
        return {"hbase": {op: sum(s.ops[op] for s in servers)
                          for op in ("put", "get", "scan")},
                **tree_stats([r.tree for r in self.regions
                              if r.tree is not None]),
                "wal_batches": sum(s.wal.batches for s in servers),
                "wal_appends": sum(s.wal.appends for s in servers)}

    def transfer_logs(self) -> tuple[list, list]:
        """``(range streams, region rebalances)`` so far: regions move."""
        return [], self.master.rebalances

    # -- elasticity --------------------------------------------------------

    def scale_out_candidate(self) -> Optional[int]:
        """The standby server a scale-out would activate (lowest id)."""
        standby = sorted(nid for nid in self.master.standby
                         if self.cluster.node(nid).alive)
        return standby[0] if standby else None

    def apply_scale_out(self, node_id: int) -> Generator:
        """Activate a standby server; regions rebalanced onto it pay the
        graceful close/reopen window before the transfer counts as done."""
        self.master.activate(node_id)
        yield self.cluster.env.timeout(hmaster.MOVE_S)
