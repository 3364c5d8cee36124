"""Property-based tests (hypothesis) for token-ring elasticity.

The invariants a live bootstrap relies on: ownership always partitions
the ring, every token keeps exactly ``min(rf, n)`` distinct replicas,
and the moved-range list returned by ``add_node`` is *exactly* the
symmetric difference of before/after placement — no arc missing (data
would silently drop below RF) and no arc extra (streaming would copy
bytes nobody needs).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.partitioner import TokenRange, TokenRing
from repro.keyspace import KEY_DOMAIN
from tests.conftest import ownership_fractions

import pytest


def clone_ring(ring: TokenRing) -> TokenRing:
    """Snapshot a ring's placement state (test-only deep copy)."""
    copy = TokenRing([0], vnodes=1, rng=random.Random(0))
    copy.node_ids = list(ring.node_ids)
    copy.vnodes = ring.vnodes
    copy._tokens = list(ring._tokens)
    copy._owners = list(ring._owners)
    copy._replica_cache = {}
    return copy


#: A ring shape plus the number of fresh nodes that join it, one by one.
ring_scripts = st.tuples(
    st.integers(min_value=1, max_value=6),    # initial nodes
    st.integers(min_value=1, max_value=8),    # vnodes
    st.integers(min_value=1, max_value=5),    # replication factor
    st.integers(),                            # seed
    st.integers(min_value=1, max_value=6))    # joins


def _ring(script):
    """The script's starting ring, its RNG, RF and joiner ids."""
    n_nodes, vnodes, rf, seed, joins = script
    rng = random.Random(seed)
    ring = TokenRing(list(range(n_nodes)), vnodes, rng)
    return ring, rng, rf, range(n_nodes, n_nodes + joins)


class TestElasticityOwnership:
    """Ownership stays a partition of the ring through every join."""

    @given(ring_scripts)
    @settings(max_examples=60, deadline=None)
    def test_fractions_sum_to_one(self, script):
        ring, rng, rf, joiners = _ring(script)
        for node_id in joiners:
            ring.add_node(node_id, rng, rf)
            fractions = ownership_fractions(ring)
            assert set(fractions) == set(ring.node_ids)
            assert all(f >= 0.0 for f in fractions.values())
            assert abs(sum(fractions.values()) - 1.0) < 1e-9
            assert len(ring._tokens) == ring.vnodes * len(ring.node_ids)
            assert ring._tokens == sorted(ring._tokens)

    @given(ring_scripts,
           st.integers(min_value=0, max_value=KEY_DOMAIN - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_token_keeps_full_replication(self, script, token):
        ring, rng, rf, joiners = _ring(script)
        for node_id in joiners:
            ring.add_node(node_id, rng, rf)
            replicas = ring.replicas_for_token(token, rf)
            assert len(replicas) == min(rf, len(ring.node_ids))
            assert len(set(replicas)) == len(replicas)
            assert all(r in ring.node_ids for r in replicas)


class TestMovedRangesAreTheSymmetricDifference:
    """``add_node`` returns exactly the placement diff."""

    @given(ring_scripts)
    @settings(max_examples=50, deadline=None)
    def test_moved_equals_independent_diff(self, script):
        ring, rng, rf, joiners = _ring(script)
        for node_id in joiners:
            before_ring = clone_ring(ring)
            moved = ring.add_node(node_id, rng, rf)
            # Recompute the diff from scratch over the union of both
            # rings' boundaries (each arc homogeneous in both rings).
            boundaries = sorted(set(before_ring._tokens)
                                | set(ring._tokens))
            before = before_ring.range_replicas(rf, boundaries)
            after = ring.range_replicas(rf, boundaries)
            expected = {(s, e): (before[s, e], after[s, e])
                        for (s, e) in before if before[s, e] != after[s, e]}
            got = {(r.start, r.end): (r.old_replicas, r.new_replicas)
                   for r in moved}
            assert got == expected
            # The joiner is the one gainer of every moved arc.
            for arc in moved:
                assert arc.gainers == (node_id,)

    @given(ring_scripts)
    @settings(max_examples=50, deadline=None)
    def test_arc_membership_matches_replica_change(self, script):
        """Token-level view: a token lies in a moved arc iff its replica
        set changed — the guarantee streaming plans are built on."""
        ring, rng, rf, joiners = _ring(script)
        probe = random.Random(script[3] + 2)
        for node_id in joiners:
            before_ring = clone_ring(ring)
            moved = ring.add_node(node_id, rng, rf)
            tokens = [probe.randrange(KEY_DOMAIN) for _ in range(20)]
            tokens += [arc.start for arc in moved]
            tokens += [(arc.end - 1) % KEY_DOMAIN for arc in moved]
            for token in tokens:
                old = tuple(before_ring.replicas_for_token(token, rf))
                new = tuple(ring.replicas_for_token(token, rf))
                covering = [arc for arc in moved if arc.contains(token)]
                assert len(covering) <= 1
                if old != new:
                    assert covering, (token, old, new)
                    assert covering[0].old_replicas == old
                    assert covering[0].new_replicas == new
                elif covering:
                    # Homogeneous arcs: a covered token always shows the
                    # arc's before/after sets, even if equality held by
                    # accident (it cannot — the arc moved).
                    raise AssertionError(
                        f"unmoved token {token} inside moved arc")


class TestRangeReplicasPartition:
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=4),
           st.integers())
    @settings(max_examples=50)
    def test_arcs_cover_the_ring_exactly_once(self, n_nodes, vnodes, rf,
                                              seed):
        ring = TokenRing(list(range(n_nodes)), vnodes,
                         random.Random(seed))
        arcs = ring.range_replicas(rf)
        widths = [TokenRange(s, e, (), ()).width for (s, e) in arcs]
        assert sum(widths) == KEY_DOMAIN
        for (s, e), replicas in arcs.items():
            assert replicas == tuple(ring.replicas_for_token(s, rf))


class TestElasticityErrors:
    def test_add_existing_raises(self):
        ring = TokenRing([0, 1], vnodes=4, rng=random.Random(7))
        with pytest.raises(ValueError):
            ring.add_node(1, random.Random(8), 2)
