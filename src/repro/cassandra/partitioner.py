"""Token ring and SimpleStrategy replica placement.

Record keys in this repo are already scrambled (FNV over the insertion
index — see :mod:`repro.keyspace`), so the partitioner treats the
numeric key suffix as the token directly; statistically this matches a
random-partitioner hash while keeping key order == token order, which
lets the same keys drive both databases.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.keyspace import KEY_DOMAIN, token_of

__all__ = ["PendingRanges", "TokenRange", "TokenRing"]


@dataclass(frozen=True)
class TokenRange:
    """A clockwise ring arc ``[start, end)`` whose replica set changed.

    ``start`` is inclusive and ``end`` exclusive, matching the ring's
    segment convention (a vnode token owns the arc *starting* at it).
    The arc wraps through zero when ``end <= start``.
    """

    start: int
    end: int
    #: Replica sets before and after the topology change, in ring order.
    old_replicas: tuple[int, ...]
    new_replicas: tuple[int, ...]

    @property
    def width(self) -> int:
        """Token-space size of the arc (a zero-length arc is the full ring)."""
        return (self.end - self.start) % KEY_DOMAIN or KEY_DOMAIN

    @property
    def gainers(self) -> tuple[int, ...]:
        """Nodes that must *receive* this arc's data (new replicas)."""
        return tuple(n for n in self.new_replicas
                     if n not in self.old_replicas)

    def contains(self, token: int) -> bool:
        return (token - self.start) % KEY_DOMAIN < self.width


class PendingRanges:
    """Extra write targets while a topology change streams data.

    Cassandra's pending ranges: while a gainer (the bootstrapping
    joiner) streams historical data, every write whose token falls in a
    moved arc is *also* sent to that arc's gainers.  The gainers never
    count toward the consistency level — the ack quorum stays on the
    pre-change replica set — so no acknowledged write can be missing
    from the post-change replicas.
    """

    def __init__(self) -> None:
        self._arcs: tuple[TokenRange, ...] = ()

    def __bool__(self) -> bool:
        return bool(self._arcs)

    def begin(self, arcs) -> None:
        self._arcs = tuple(arcs)

    def end(self) -> None:
        self._arcs = ()

    def targets_for_token(self, token: int) -> list[int]:
        """Gainers of every pending arc containing ``token``, in order."""
        out: list[int] = []
        for arc in self._arcs:
            if arc.contains(token):
                out.extend(g for g in arc.gainers if g not in out)
        return out


class TokenRing:
    """Virtual-node token ring with SimpleStrategy placement."""

    def __init__(self, node_ids: list[int], vnodes: int, rng) -> None:
        if not node_ids:
            raise ValueError("ring needs at least one node")
        self.node_ids = list(node_ids)
        self.vnodes = vnodes
        #: Sorted ring positions and the owning node of each.
        self._tokens: list[int] = []
        self._owners: list[int] = []
        taken: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for node_id in node_ids:
            for _ in range(vnodes):
                token = rng.randrange(KEY_DOMAIN)
                while token in taken:
                    token = rng.randrange(KEY_DOMAIN)
                taken.add(token)
                pairs.append((token, node_id))
        pairs.sort()
        self._tokens = [t for t, _ in pairs]
        self._owners = [o for _, o in pairs]
        #: (primary ring index, replication) -> replica list.  Placement
        #: per segment only changes on :meth:`add_node` / :meth:`adopt`,
        #: which clear the cache (:meth:`_placement_changed`); between
        #: topology changes it is bounded by vnode count x distinct RFs.
        #: Callers treat the returned list as read-only (they copy or
        #: comprehend, never mutate).
        self._replica_cache: dict[tuple[int, int], list[int]] = {}
        #: The placement strategies' key -> replica-list memos
        #: (:meth:`key_memo`), emptied wherever ``_replica_cache`` is.
        self._key_memos: list[dict[str, list[int]]] = []

    def key_memo(self) -> dict[str, list[int]]:
        """A key -> replica-list memo for one placement strategy on this
        ring: valid until placement changes, i.e. until :meth:`add_node`
        or :meth:`adopt`, which empty it together with the segment cache.
        At most one entry per key ever addressed."""
        memo: dict[str, list[int]] = {}
        self._key_memos.append(memo)
        return memo

    def _placement_changed(self) -> None:
        self._replica_cache.clear()
        for memo in self._key_memos:
            memo.clear()

    def primary_index(self, token: int) -> int:
        """Ring position owning ``token`` (first vnode clockwise)."""
        idx = bisect.bisect_right(self._tokens, token)
        return idx % len(self._tokens)

    def replicas_for_token(self, token: int, replication: int) -> list[int]:
        """SimpleStrategy: walk clockwise, collect distinct nodes.

        The first element is the *main replica* — the paper notes Cassandra
        orders replicas deterministically and always involves the first.
        """
        idx = self.primary_index(token)
        cached = self._replica_cache.get((idx, replication))
        if cached is not None:
            return cached
        capped = min(replication, len(self.node_ids))
        replicas: list[int] = []
        steps = 0
        while len(replicas) < capped and steps < len(self._tokens):
            owner = self._owners[(idx + steps) % len(self._tokens)]
            if owner not in replicas:
                replicas.append(owner)
            steps += 1
        self._replica_cache[(idx, replication)] = replicas
        return replicas

    def replicas_for_key(self, key: str, replication: int) -> list[int]:
        return self.replicas_for_token(token_of(key), replication)

    # -- elasticity --------------------------------------------------------

    def clone(self) -> "TokenRing":
        """A detached copy for *planning* a topology change.

        Apply :meth:`add_node` to the clone to learn the moved arcs,
        stream data accordingly, then :meth:`adopt` the clone so every
        holder of this ring object switches to the new placement in one
        step.
        """
        twin = TokenRing.__new__(TokenRing)
        twin.node_ids = list(self.node_ids)
        twin.vnodes = self.vnodes
        twin._tokens = list(self._tokens)
        twin._owners = list(self._owners)
        twin._replica_cache = {}
        twin._key_memos = []
        return twin

    def adopt(self, other: "TokenRing") -> None:
        """Atomically take over ``other``'s placement state.

        The commit point of a topology change: the placement strategies
        and nodes all share *this* ring object, so copying the clone's
        state in-place flips the whole deployment to the new topology
        between two events — never mid-request.
        """
        self.node_ids = list(other.node_ids)
        self._tokens = list(other._tokens)
        self._owners = list(other._owners)
        self._placement_changed()

    def range_replicas(self, replication: int,
                       boundaries: list[int] | None = None,
                       ) -> dict[tuple[int, int], tuple[int, ...]]:
        """Replica set of every arc ``[b[i], b[i+1])`` of ``boundaries``.

        ``boundaries`` must be sorted and include every ring token (the
        default is the ring's own token list), so each arc is homogeneous:
        all its tokens share one replica set.  Used to diff placement
        across topology changes at a common granularity.
        """
        if boundaries is None:
            boundaries = self._tokens
        n = len(boundaries)
        out: dict[tuple[int, int], tuple[int, ...]] = {}
        for i, start in enumerate(boundaries):
            end = boundaries[(i + 1) % n]
            out[(start, end)] = tuple(
                self.replicas_for_token(start, replication))
        return out

    def add_node(self, node_id: int, rng, replication: int,
                 ) -> list[TokenRange]:
        """Bootstrap ``node_id`` into the ring; return the moved arcs.

        Draws ``vnodes`` fresh collision-free tokens from ``rng`` (the
        ring stores no RNG of its own — pass a dedicated deterministic
        stream), inserts them, and returns every arc whose replica set
        changed at replication factor ``replication`` — exactly the data
        a streaming plan must transfer to keep every key at RF.
        """
        if node_id in self.node_ids:
            raise ValueError(f"node {node_id} is already in the ring")
        taken = set(self._tokens)
        new_tokens: list[int] = []
        for _ in range(self.vnodes):
            token = rng.randrange(KEY_DOMAIN)
            while token in taken:
                token = rng.randrange(KEY_DOMAIN)
            taken.add(token)
            new_tokens.append(token)
        boundaries = sorted(taken)
        before = self.range_replicas(replication, boundaries)
        for token in new_tokens:
            idx = bisect.bisect_left(self._tokens, token)
            self._tokens.insert(idx, token)
            self._owners.insert(idx, node_id)
        self.node_ids.append(node_id)
        self._placement_changed()
        after = self.range_replicas(replication, boundaries)
        return [TokenRange(start, end, before[start, end], after[start, end])
                for (start, end) in before
                if before[start, end] != after[start, end]]
