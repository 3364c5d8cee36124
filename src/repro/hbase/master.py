"""HMaster: region assignment, failover and rebalancing."""

from __future__ import annotations

from typing import Generator, Iterable

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.hbase.region import Region
from repro.hbase.regionserver import RegionServer

__all__ = ["HMaster"]


class HMaster:
    """Owns the region → RegionServer assignment.

    A background monitor plays the ZooKeeper session-expiry role: when a
    RegionServer's node dies, its regions are redistributed round-robin
    over the survivors after ``detection_s``, and each moved region pays
    ``recovery_s`` of WAL-replay unavailability.  When a dead server
    *returns*, the monitor rebalances regions back onto it — without
    that, every failover permanently piles regions onto the survivors.

    Planned moves (rebalance, activate, decommission) pay ``move_s``
    instead: a graceful move closes the region — flushing its MemStore,
    so nothing is left to replay — and reopens it on the target, a
    sub-second window rather than a crash recovery.

    ``standby`` servers are provisioned but out of service: they receive
    no regions until :meth:`activate` brings them in (scale-out), and
    :meth:`decommission` drains a server back to standby (scale-in).
    """

    def __init__(self, cluster: Cluster, node: Node,
                 servers: dict[int, RegionServer], regions: list[Region],
                 detection_s: float = 3.0, recovery_s: float = 2.0,
                 move_s: float = 0.25,
                 standby: Iterable[int] = ()) -> None:
        self.cluster = cluster
        self.node = node
        self.servers = servers
        self.regions = {r.region_id: r for r in regions}
        #: region_id -> node_id of the serving RegionServer.
        self.assignment: dict[int, int] = {}
        self.detection_s = detection_s
        self.recovery_s = recovery_s
        self.move_s = move_s
        self.failovers: list[tuple[float, int, int]] = []
        #: (time, region_id, target_node_id) for every balancing move
        #: (rejoin rebalance, activate, decommission drain).
        self.rebalances: list[tuple[float, int, int]] = []
        #: Provisioned-but-idle servers (see class docstring).
        self.standby: set[int] = set(standby)
        self._handled_deaths: set[int] = set()
        node.register("master.locate", self._handle_locate)
        cluster.env.process(self._monitor(), name="hmaster-monitor")

    def assign(self, region: Region, server: RegionServer) -> None:
        """Record (and effect) one region's assignment."""
        previous = self.assignment.get(region.region_id)
        if previous is not None and previous in self.servers:
            self.servers[previous].regions.pop(region.region_id, None)
        self.assignment[region.region_id] = server.node.node_id
        server.regions[region.region_id] = region

    def _handle_locate(self, payload) -> Generator:
        yield from self.node.cpu_work(1e-5)
        return dict(self.assignment)

    def _alive_servers(self) -> list[RegionServer]:
        return [s for nid, s in sorted(self.servers.items())
                if s.node.alive and nid not in self.standby]

    def _monitor(self) -> Generator:
        while True:
            yield self.cluster.env.timeout(self.detection_s)
            for node_id, server in self.servers.items():
                if server.node.alive:
                    if node_id in self._handled_deaths:
                        # The server came back: it is empty (its regions
                        # failed over), so spread load back onto it.
                        self._handled_deaths.discard(node_id)
                        self.rebalance()
                    continue
                if node_id in self._handled_deaths:
                    continue
                self._handled_deaths.add(node_id)
                self._failover(server)

    def _failover(self, dead: RegionServer) -> None:
        survivors = self._alive_servers()
        if not survivors:
            return
        moved = [self.regions[rid] for rid, nid in self.assignment.items()
                 if nid == dead.node.node_id]
        for i, region in enumerate(moved):
            target = survivors[i % len(survivors)]
            region.move_to(target, self.recovery_s)
            self.assign(region, target)
            self.failovers.append(
                (self.cluster.env.now, region.region_id, target.node.node_id))
        dead.regions.clear()

    # -- balancing / elasticity -------------------------------------------

    def _region_counts(self,
                       servers: list[RegionServer]) -> dict[int, int]:
        counts = {s.node.node_id: 0 for s in servers}
        for nid in self.assignment.values():
            if nid in counts:
                counts[nid] += 1
        return counts

    def _move(self, region: Region, target: RegionServer) -> None:
        region.move_to(target, self.move_s)
        self.assign(region, target)
        self.rebalances.append(
            (self.cluster.env.now, region.region_id, target.node.node_id))

    def rebalance(self) -> int:
        """Even out region counts across in-service servers.

        Deterministic minimal-moves plan: the remainder slots of the
        ideal ``total/servers`` distribution go to the currently fullest
        servers (so already-balanced servers never trade regions), then
        donors shed their highest-id regions down to target and
        receivers fill in node-id order.  Each move pays ``move_s`` of
        region unavailability (a graceful close/flush/reopen, not a
        WAL replay).  Returns the number of moves.
        """
        alive = self._alive_servers()
        if not alive:
            return 0
        counts = self._region_counts(alive)
        base, extra = divmod(sum(counts.values()), len(alive))
        order = sorted(alive, key=lambda s: (-counts[s.node.node_id],
                                             s.node.node_id))
        target = {s.node.node_id: base + (1 if i < extra else 0)
                  for i, s in enumerate(order)}
        spare: list[int] = []
        for server in alive:
            nid = server.node.node_id
            owned = sorted(r for r, owner in self.assignment.items()
                           if owner == nid)
            excess = len(owned) - target[nid]
            if excess > 0:
                spare.extend(owned[-excess:])
                counts[nid] -= excess
        moves = 0
        pool = iter(spare)
        for server in alive:
            nid = server.node.node_id
            while counts[nid] < target[nid]:
                self._move(self.regions[next(pool)], server)
                counts[nid] += 1
                moves += 1
        return moves

    def activate(self, node_id: int) -> int:
        """Bring a standby server into service; rebalance onto it."""
        if node_id not in self.servers:
            raise ValueError(f"unknown RegionServer node {node_id}")
        self.standby.discard(node_id)
        return self.rebalance()

    def decommission(self, node_id: int) -> int:
        """Gracefully drain a server back to standby (scale-in).

        Its regions move to the least-loaded remaining servers; returns
        the number of regions moved.
        """
        if node_id not in self.servers:
            raise ValueError(f"unknown RegionServer node {node_id}")
        self.standby.add(node_id)
        targets = self._alive_servers()
        if not targets:
            self.standby.discard(node_id)
            raise ValueError("cannot decommission the last active server")
        counts = self._region_counts(targets)
        moved = sorted(rid for rid, nid in self.assignment.items()
                       if nid == node_id)
        for region_id in moved:
            target = min(targets, key=lambda s: (counts[s.node.node_id],
                                                 s.node.node_id))
            self._move(self.regions[region_id], target)
            counts[target.node.node_id] += 1
        return len(moved)
