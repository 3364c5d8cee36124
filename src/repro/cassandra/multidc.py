"""Multi-datacenter replica placement (NetworkTopologyStrategy).

Implements the paper's §6 future-work scenario: Cassandra spanning
geo-distributed datacenters (cf. Bermbach et al., the geo-consistency
study the paper cites in §5).  ``NetworkTopologyStrategy`` places a
configured number of replicas in *each* datacenter by walking the token
ring and taking the first distinct nodes per datacenter; combined with
the LOCAL_ONE / LOCAL_QUORUM consistency levels it gives low geo-read
latency with tunable cross-DC consistency.
"""

from __future__ import annotations

from repro.cassandra.partitioner import PendingRanges, TokenRing
from repro.keyspace import token_of

__all__ = ["NetworkTopologyStrategy", "SimpleStrategy"]


class SimpleStrategy:
    """Single-ring placement: first RF distinct nodes clockwise."""

    #: No per-datacenter replication (see
    #: :class:`NetworkTopologyStrategy`).
    replication_per_dc = None

    def __init__(self, ring: TokenRing, replication: int) -> None:
        self.ring = ring
        self.replication = replication
        #: Armed during bootstrap streaming: extra write
        #: targets that never count toward the consistency level.
        self.pending = PendingRanges()
        self._memo = ring.key_memo()

    def replicas_for_key(self, key: str) -> list[int]:
        replicas = self._memo.get(key)
        if replicas is None:
            replicas = self._memo[key] = self.ring.replicas_for_key(
                key, self.replication)
        return replicas


class NetworkTopologyStrategy:
    """Per-datacenter replica counts over one global token ring.

    ``replication_per_dc`` maps datacenter name -> replica count; the
    walk order follows the ring, so each datacenter's replicas are the
    first of its nodes encountered clockwise from the key's token —
    matching Cassandra's semantics.
    """

    def __init__(self, ring: TokenRing, node_datacenter: dict[int, str],
                 replication_per_dc: dict[str, int]) -> None:
        unknown = {dc for dc in replication_per_dc
                   if dc not in set(node_datacenter.values())}
        if unknown:
            raise ValueError(f"replication configured for unknown "
                             f"datacenters: {sorted(unknown)}")
        self.ring = ring
        self.node_datacenter = dict(node_datacenter)
        self.replication_per_dc = dict(replication_per_dc)
        #: See :class:`SimpleStrategy` — same double-write contract.
        self.pending = PendingRanges()
        self._memo = ring.key_memo()
        for dc, count in replication_per_dc.items():
            available = sum(1 for d in node_datacenter.values() if d == dc)
            if count > available:
                raise ValueError(
                    f"datacenter {dc!r} has {available} nodes but "
                    f"replication {count} requested")

    def replicas_for_key(self, key: str) -> list[int]:
        replicas = self._memo.get(key)
        if replicas is None:
            replicas = self._memo[key] = self._walk(key)
        return replicas

    def _walk(self, key: str) -> list[int]:
        token = token_of(key)
        wanted = dict(self.replication_per_dc)
        replicas: list[int] = []
        idx = self.ring.primary_index(token)
        ring_size = len(self.ring._tokens)
        for step in range(ring_size):
            owner = self.ring._owners[(idx + step) % ring_size]
            if owner in replicas:
                continue
            dc = self.node_datacenter.get(owner)
            if wanted.get(dc, 0) > 0:
                replicas.append(owner)
                wanted[dc] -= 1
            if all(count == 0 for count in wanted.values()):
                break
        return replicas
