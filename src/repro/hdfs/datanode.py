"""DataNode: block replica storage service on one node."""

from __future__ import annotations

from typing import Generator, Optional

from repro.cluster.disk import BACKGROUND, FOREGROUND
from repro.cluster.node import Node

__all__ = ["DataNode"]

#: CPU charged per packet a datanode receives/forwards.  The pipeline
#: books it on the receiving end of the hop that delivers the packet.
PACKET_CPU_S = 8e-6


class DataNode:
    """Stores block replicas on its node's disk; serves remote reads.

    Registered on the node under the ``dn.read`` RPC verb so non-local
    clients (e.g. a RegionServer that lost data locality after failover)
    can fetch blocks over the network.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self.blocks_received = 0
        self.bytes_received = 0
        node.register("dn.read", self._handle_read, cpu_s=PACKET_CPU_S)

    def receive_packet(self, size: int, sync: bool) -> Optional[Generator]:
        """Accept packet bytes into memory (hflush) or onto disk (hsync).

        Returns ``None`` when the bytes are buffered and the packet may
        travel on at once, otherwise the disk write to run until they
        are on the platter.
        """
        self.blocks_received += 1
        self.bytes_received += size
        if sync:
            return self.node.disk.write(size, sequential=True,
                                        priority=FOREGROUND)
        self.node.disk.append_buffered(size)
        return None

    def read_local(self, size: int, sequential: bool,
                   priority: int) -> Generator:
        """Short-circuit read executed by a co-located client."""
        yield from self.node.disk.read(size, sequential=sequential,
                                       priority=priority)

    def _handle_read(self, payload) -> Generator:
        """Remote read RPC: ``payload`` is (size, sequential)."""
        size, sequential = payload
        yield from self.node.disk.read(size, sequential=sequential,
                                       priority=BACKGROUND if sequential
                                       else FOREGROUND)
        return size
