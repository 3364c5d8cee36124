"""A DFS file and its replica set."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DfsFile"]


@dataclass
class DfsFile:
    """One DFS file: a name, a size, and the datanodes holding replicas.

    The simulator does not split files into 128 MB blocks — every file the
    databases create (WAL segments, HFiles) is far smaller than one block,
    so a file maps to exactly one block and one replica set, which keeps
    bookkeeping honest without fake granularity.
    """

    path: str
    replication: int
    #: Node ids of the datanodes holding a replica, pipeline order.
    locations: list[int] = field(default_factory=list)
    size_bytes: int = 0

    def held_by(self, node_id: int) -> bool:
        return node_id in self.locations
