"""The HDFS write pipeline.

Data flows client → DN1 → DN2 → … → DNr as a chain of store-and-forward
packet transfers; acknowledgements cascade back DNr → … → DN1 → client.
The client's append returns when the ack arrives, i.e. once every
datanode holds the bytes — *in memory* unless ``sync`` is set.

This is the exact mechanism behind the paper's finding F2: each extra
replica adds one in-rack hop (~0.1 ms) and zero disk time to an HBase
write, so the write latency curve stays flat as RF grows from 1 to 6.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.hdfs.datanode import PACKET_CPU_S, DataNode
from repro.sim.kernel import _PENDING, Event, Process

__all__ = ["pipeline_write", "ACK_BYTES"]

#: Size of one pipeline acknowledgement message.
ACK_BYTES = 46
#: Maximum payload carried by one pipeline packet (HDFS default 64 KiB).
PACKET_BYTES = 64 * 1024


class _PipelineWrite(Event):
    """One write on its way down the pipeline and back: the event that
    completes, inline, when the last ack reaches the client — and the
    state its hops share.  No process: each hop's arrival is a callback
    (:meth:`_step`) that takes the packet in and sends the next hop.

    Hops are numbered in travel order: every chunk down the pipeline
    (``_data_hops`` of them, ``depth`` per chunk), then one ack hop per
    datanode back up.  ``_nodes`` is the pipeline with the client at its
    head, so data hop ``k`` runs ``_nodes[k % depth] -> [k % depth + 1]``.
    """

    __slots__ = ("cluster", "datanodes", "chunks", "sync", "_nodes",
                 "_depth", "_data_hops", "_hop")

    def __init__(self, cluster: Cluster, client_node: Node,
                 datanodes: list[DataNode], size: int, sync: bool) -> None:
        self.env = cluster.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.cluster = cluster
        self.datanodes = datanodes
        self.chunks = chunks = _chunk_sizes(size)
        self.sync = sync
        self._nodes = [client_node, *[dn.node for dn in datanodes]]
        self._depth = depth = len(datanodes)
        self._data_hops = len(chunks) * depth
        self._hop = -1
        self._step(None)

    def _step(self, leg: Optional[Event]) -> None:
        """Hop ``_hop`` landed: its datanode takes the packet in, then
        the next hop leaves — or, after the last ack, the write is done.

        ``leg`` is ``None`` when there is nothing to take in: before the
        first hop, and when it was the packet's hsync that just finished
        (:meth:`_stored`).
        """
        hop = self._hop
        depth = self._depth
        data_hops = self._data_hops
        if leg is not None and hop < data_hops:
            storing = self.datanodes[hop % depth].receive_packet(
                self.chunks[hop // depth], self.sync)
            if storing is not None:
                # hsync: the packet travels on once it is on the platter.
                Process(self.env, storing, "hsync", True, self._stored)
                return
        self._hop = hop = hop + 1
        nodes = self._nodes
        if hop < data_hops:
            # Each hop is one message leg with the datanode's packet CPU
            # on its receiving end.  A chunk of a multi-chunk transfer
            # holds the wire for ~0.55 ms, so its receiver is booked on
            # arrival (the look-ahead rule of ``Cluster.leg``); hops are
            # never chained into one reservation, which would park every
            # NIC down the pipeline.
            at = hop % depth
            self.cluster.leg(nodes[at], nodes[at + 1],
                             self.chunks[hop // depth], 0.0, PACKET_CPU_S,
                             data_hops > depth,  # more than one chunk
                             callback=self._step)
        elif hop < data_hops + depth:
            # Ack cascade: DNr -> ... -> DN1 -> client, one small hop each.
            at = data_hops + depth - hop
            self.cluster.leg(nodes[at], nodes[at - 1], ACK_BYTES,
                             callback=self._step)
        else:
            self._value = None
            callbacks, self.callbacks = self.callbacks, None
            for callback in callbacks:
                callback(self)

    def _stored(self, write: Event) -> None:
        """The hsync of the packet that landed last finished."""
        if write._ok:
            self._step(None)
        else:
            # A disk that fails a write fails the pipeline write: whoever
            # waits on it hears, and an unwatched failure stops the run.
            write._defused = True
            self.fail(write._value)


def pipeline_write(cluster: Cluster, client_node: Node,
                   datanodes: list[DataNode], size: int,
                   sync: bool = False) -> Event:
    """Push ``size`` bytes through the replication pipeline; the returned
    event fires once the last ack is back (``yield`` it).

    Transfers larger than one packet are sent packet-by-packet but, to
    keep the event count proportional to operations rather than bytes,
    successive packets are batched into 256 KiB transfer chunks — small
    enough that foreground reads interleave with bulk replication traffic
    on the NICs (as they do between real 64 KiB packets), large enough to
    avoid simulating thousands of events per flush.
    """
    if not datanodes:
        raise ValueError("pipeline needs at least one datanode")
    return _PipelineWrite(cluster, client_node, datanodes, size, sync)


#: Bulk transfers are simulated in chunks of this size (the real HDFS
#: packet size): a chunk holds a NIC for ~0.55 ms, so foreground RPCs
#: interleave with bulk replication instead of stalling behind it.
CHUNK_BYTES = PACKET_BYTES
#: Upper bound on chunks per transfer to keep event counts sane; beyond
#: this the chunks simply grow (a >2 MB transfer is compaction output,
#: whose burstiness is already smoothed by its sheer duration).
MAX_CHUNKS = 32


def _chunk_sizes(size: int) -> list[int]:
    """Batch the packets of a ``size``-byte transfer into ~64 KiB
    transfer chunks."""
    if size <= CHUNK_BYTES:
        return [size]
    n_chunks = min(-(-size // PACKET_BYTES), -(-size // CHUNK_BYTES),
                   MAX_CHUNKS)
    base = size // n_chunks
    sizes = [base] * n_chunks
    sizes[-1] += size - base * n_chunks
    return sizes
