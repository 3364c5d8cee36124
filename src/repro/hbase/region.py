"""Regions: contiguous key ranges served by exactly one RegionServer."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster.disk import BACKGROUND, FOREGROUND
from repro.keyspace import key_for_token
from repro.sim.kernel import Event
from repro.storage.lsm import LsmTree, StorageSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hbase.regionserver import RegionServer

__all__ = ["Region", "RegionMedium"]


class RegionMedium:
    """Storage medium wiring a region's LSM tree to its current server.

    - log appends go to the *RegionServer-wide* group-commit WAL (all
      regions on a server share one WAL, as in HBase),
    - HFile reads/writes go through the server's DFS client, so a region
      that moved after failover transparently loses short-circuit locality
      (its HFiles' replicas still live on the old server's datanode).

    The ``server`` reference is swapped by the HMaster on reassignment.
    """

    def __init__(self, server: "RegionServer") -> None:
        self.server = server

    def append_log(self, size: int, sync: bool) -> Event:
        """Route the region's WAL record into the server-wide group
        commit (whose own ``sync`` mode decides hflush or hsync); the
        returned event fires once the record is pipeline-acked."""
        return self.server.wal.append(size)

    def read_block(self, size: int, priority: int = FOREGROUND,
                   handle=None) -> Generator:
        """Random-read one HFile block (short-circuit when local)."""
        yield from self.server.dfs.read(handle, size, sequential=False,
                                        priority=priority)

    def read_run(self, size: int, handle=None) -> Generator:
        """Sequentially read an HFile (compaction input)."""
        yield from self.server.dfs.read(handle, size, sequential=True,
                                        priority=BACKGROUND)

    def write_run(self, size: int) -> Generator:
        """Create a new HFile through the HDFS pipeline; returns its handle."""
        file = yield from self.server.dfs.create("hfile", size)
        yield self.server.dfs.append(file, size, sync=False)
        return file


class Region:
    """One key-range shard: ``[start_token, end_token)`` over the key domain."""

    def __init__(self, region_id: int, start_token: int, end_token: int) -> None:
        if end_token <= start_token:
            raise ValueError("empty region range")
        self.region_id = region_id
        self.start_token = start_token
        self.end_token = end_token
        #: The range again as record keys: keys are fixed-width decimal
        #: tokens, so key order is token order and the per-request range
        #: check (:meth:`covers`) needs no parse.
        self._start_key = key_for_token(start_token)
        self._end_key = key_for_token(end_token)
        #: Set when the region is opened on a server.
        self.tree: Optional[LsmTree] = None
        self.medium: Optional[RegionMedium] = None
        #: Simulated time until which the region is unavailable (WAL
        #: replay after a move); requests earlier than this wait.
        self.available_at = 0.0

    def contains(self, token: int) -> bool:
        """True when ``token`` falls inside this region's key range."""
        return self.start_token <= token < self.end_token

    def covers(self, key: str) -> bool:
        """:meth:`contains` for a record key."""
        return self._start_key <= key < self._end_key

    def open_on(self, server: "RegionServer", spec: StorageSpec) -> None:
        """First open: create the region's LSM tree on ``server``."""
        self.medium = RegionMedium(server)
        self.tree = LsmTree(server.node.env, server.node, self.medium, spec,
                            name=f"region{self.region_id}")

    def split(self, daughter_id: int, spec: StorageSpec) -> "Region":
        """Split at the midpoint token; returns the new top-half daughter.

        The parent shrinks to ``[start, mid)`` and the daughter opens on
        the same server with ``[mid, end)``.  Like real HBase, no data is
        copied at split time: the daughter adopts the top-half entries as
        a reference run and the parent's stores filter them out until the
        next compaction rewrites both sides (see
        :meth:`~repro.storage.lsm.LsmTree.drop_range`).
        """
        if self.end_token - self.start_token < 2:
            raise ValueError(f"region {self.region_id} too small to split")
        assert self.tree is not None and self.medium is not None
        mid = self.start_token + (self.end_token - self.start_token) // 2
        daughter = Region(daughter_id, mid, self.end_token)
        self.end_token = mid
        self._end_key = split_key = key_for_token(mid)
        server = self.medium.server
        daughter.open_on(server, spec)
        top = [e for e in self.tree.snapshot_entries() if e[0] >= split_key]
        daughter.tree.ingest_run(top)
        self.tree.drop_range(split_key)
        return daughter

    def move_to(self, server: "RegionServer", recovery_s: float) -> None:
        """Reassign to ``server`` (failover): same data, new home.

        Real HBase replays the WAL to rebuild the MemStore; the model
        keeps the data (the WAL pipeline made it durable on other nodes)
        and charges the replay as an unavailability window.
        """
        assert self.tree is not None and self.medium is not None
        self.medium.server = server
        self.tree.node = server.node
        self.available_at = server.node.env.now + recovery_s

    def __repr__(self) -> str:
        return (f"<Region {self.region_id} "
                f"[{self.start_token:#x}, {self.end_token:#x})>")
