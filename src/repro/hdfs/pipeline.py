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

from typing import Generator

from repro.cluster.node import Node
from repro.cluster.topology import Cluster
from repro.hdfs.datanode import PACKET_CPU_S, DataNode

__all__ = ["pipeline_write", "ACK_BYTES"]

#: Size of one pipeline acknowledgement message.
ACK_BYTES = 46
#: Maximum payload carried by one pipeline packet (HDFS default 64 KiB).
PACKET_BYTES = 64 * 1024


def pipeline_write(cluster: Cluster, client_node: Node,
                   datanodes: list[DataNode], size: int,
                   sync: bool = False) -> Generator:
    """Push ``size`` bytes through the replication pipeline (a process).

    Transfers larger than one packet are sent packet-by-packet but, to
    keep the event count proportional to operations rather than bytes,
    successive packets are batched into 256 KiB transfer chunks — small
    enough that foreground reads interleave with bulk replication traffic
    on the NICs (as they do between real 64 KiB packets), large enough to
    avoid simulating thousands of events per flush.
    """
    if not datanodes:
        raise ValueError("pipeline needs at least one datanode")
    n_packets = max(1, -(-size // PACKET_BYTES))
    chunks = _chunk_sizes(size, n_packets)
    # Each hop is one message leg with the datanode's packet CPU on its
    # receiving end.  A chunk of a multi-chunk transfer holds the wire
    # for ~0.55 ms, so its receiver is booked on arrival (the look-ahead
    # rule of ``Cluster.leg``); hops are never chained into one
    # reservation, which would park every NIC down the pipeline.
    bulk = len(chunks) > 1
    for chunk in chunks:
        prev = client_node
        for dn in datanodes:
            yield cluster.leg(prev, dn.node, chunk,
                              dst_cpu_s=PACKET_CPU_S, on_arrival=bulk)
            yield from dn.receive_packet(chunk, sync)
            prev = dn.node
    # Ack cascade: DNr -> ... -> DN1 -> client (one small hop each).
    hops = [dn.node for dn in reversed(datanodes)] + [client_node]
    for src, dst in zip(hops, hops[1:]):
        yield cluster.leg(src, dst, ACK_BYTES)


#: Bulk transfers are simulated in chunks of this size (the real HDFS
#: packet size): a chunk holds a NIC for ~0.55 ms, so foreground RPCs
#: interleave with bulk replication instead of stalling behind it.
CHUNK_BYTES = PACKET_BYTES
#: Upper bound on chunks per transfer to keep event counts sane; beyond
#: this the chunks simply grow (a >2 MB transfer is compaction output,
#: whose burstiness is already smoothed by its sheer duration).
MAX_CHUNKS = 32


def _chunk_sizes(size: int, n_packets: int) -> list[int]:
    """Batch ``n_packets`` packets into ~64 KiB transfer chunks."""
    if n_packets <= 1 or size <= CHUNK_BYTES:
        return [size]
    n_chunks = min(n_packets, -(-size // CHUNK_BYTES), MAX_CHUNKS)
    base = size // n_chunks
    sizes = [base] * n_chunks
    sizes[-1] += size - base * n_chunks
    return sizes
