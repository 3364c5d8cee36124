"""NameNode: namespace and replica placement."""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.node import Node
from repro.hdfs.block import DfsFile

__all__ = ["NameNode"]

#: CPU charged per namespace operation on the NameNode.
_NS_OP_CPU_S = 1e-5


class NameNode:
    """Namespace owner; chooses pipeline targets for new files.

    Placement follows the in-rack HDFS default: the first replica goes to
    the writer's own datanode (giving HBase its data locality), the rest
    to distinct random datanodes.
    """

    def __init__(self, node: Node, datanode_ids: list[int], rng) -> None:
        self.node = node
        self.datanode_ids = list(datanode_ids)
        self._rng = rng
        #: path -> file.
        self.namespace: dict[str, DfsFile] = {}
        self._next_file_id = 0
        node.register("nn.create", self._handle_create)

    def choose_targets(self, replication: int,
                       writer_id: Optional[int]) -> list[int]:
        """Pipeline targets for a new file written by ``writer_id``."""
        replication = min(replication, len(self.datanode_ids))
        targets: list[int] = []
        if writer_id is not None and writer_id in self.datanode_ids:
            targets.append(writer_id)
        remaining = [d for d in self.datanode_ids if d not in targets]
        self._rng.shuffle(remaining)
        targets.extend(remaining[:replication - len(targets)])
        return targets

    def create_file(self, prefix: str, replication: int,
                    writer_id: Optional[int], size: int) -> DfsFile:
        """Allocate a file + replica set (logical part of ``nn.create``)."""
        self._next_file_id += 1
        # ``size`` is a placement hint only; the file's actual size grows
        # with appends (double-counting it broke replica accounting).
        del size
        file = DfsFile(path=f"{prefix}/{self._next_file_id:08d}",
                       replication=replication,
                       locations=self.choose_targets(replication, writer_id),
                       size_bytes=0)
        self.namespace[file.path] = file
        return file

    # -- RPC handlers --------------------------------------------------

    def _handle_create(self, payload) -> Generator:
        prefix, replication, writer_id, size = payload
        yield from self.node.cpu_work(_NS_OP_CPU_S)
        return self.create_file(prefix, replication, writer_id, size)
