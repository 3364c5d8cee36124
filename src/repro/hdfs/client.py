"""DFSClient facade: create, append, read.

HBase's storage medium (:class:`repro.hbase.region.RegionMedium`) places
an :class:`~repro.storage.lsm.LsmTree`'s WAL and HFiles on HDFS through
this client: log appends travel the replication pipeline, flushes create
pipelined files, and block reads short-circuit to the local disk
whenever a replica lives on the reader's node (the normal case, since
the pipeline puts the first replica on the writer).
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.disk import FOREGROUND
from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.hdfs.block import DfsFile
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.pipeline import pipeline_write
from repro.sim.kernel import Event

__all__ = ["DfsClient"]

#: WAL segments roll after this many bytes (scaled-down HDFS block).
WAL_SEGMENT_BYTES = 8 * 1024 * 1024


class DfsClient:
    """Per-process DFS access: create, append, read."""

    def __init__(self, cluster: Cluster, namenode: NameNode,
                 datanodes: dict[int, DataNode], client_node: Node,
                 replication: int, rng) -> None:
        self.cluster = cluster
        self.namenode = namenode
        self.datanodes = datanodes
        self.client_node = client_node
        self.replication = replication
        self._rng = rng

    def _pipeline_nodes(self, file: DfsFile) -> list[DataNode]:
        # Every location is a key of ``datanodes``: the NameNode places
        # replicas on those ids only, and no topology change removes one.
        datanodes = self.datanodes
        return [datanodes[i] for i in file.locations
                if datanodes[i].node.alive]

    def create(self, prefix: str, size_hint: int = 0) -> Generator:
        """Create a file; returns its :class:`DfsFile` descriptor."""
        file = yield from self.cluster.call(
            self.client_node, self.namenode.node, "nn.create",
            (prefix, self.replication, self.client_node.node_id, size_hint),
            request_bytes=80, response_bytes=120)
        return file

    def append(self, file: DfsFile, size: int, sync: bool = False) -> Event:
        """Append ``size`` bytes through the file's pipeline; the
        returned event fires once they are acknowledged (``yield`` it).

        The file grows as the first thing that happens on the last ack —
        before any waiter of the event runs — and only if the write
        succeeded.  Raises ``RuntimeError`` at once when no replica of
        the file is alive.
        """
        targets = self._pipeline_nodes(file)
        if not targets:
            raise RuntimeError(f"no live replicas for {file.path}")
        write = pipeline_write(self.cluster, self.client_node, targets,
                               size, sync)

        def grow(write: Event) -> None:
            if write._ok:
                file.size_bytes += size

        write.callbacks.append(grow)
        return write

    def read(self, file: Optional[DfsFile], size: int,
             sequential: bool = False, priority: int = FOREGROUND) -> Generator:
        """Read ``size`` bytes, short-circuiting when a replica is local."""
        local_id = self.client_node.node_id
        if file is None or file.held_by(local_id):
            dn = self.datanodes.get(local_id)
            if dn is not None:
                yield from dn.read_local(size, sequential, priority)
                return
        candidates = [i for i in (file.locations if file else [])
                      if self.datanodes[i].node.alive]
        if not candidates:
            raise RuntimeError(
                f"no live replicas to read {file.path if file else '<anon>'}")
        target = self.datanodes[self._rng.choice(candidates)]
        yield from self.cluster.call(
            self.client_node, target.node, "dn.read", (size, sequential),
            request_bytes=60, response_bytes=size)
