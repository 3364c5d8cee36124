"""Unit tests for the token ring and consistency arithmetic, and a
property: the placement strategies' key memos answer what a fresh walk of
the ring does, across topology changes."""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.multidc import NetworkTopologyStrategy, SimpleStrategy
from repro.cassandra.partitioner import TokenRing
from repro.keyspace import KEY_DOMAIN, key_for_index, key_for_token, token_of
from tests.conftest import ownership_fractions

pytestmark = pytest.mark.hashseed


@pytest.fixture
def ring():
    return TokenRing(node_ids=[0, 1, 2, 3, 4], vnodes=16,
                     rng=random.Random(7))


class TestTokenRing:
    def test_replicas_distinct_nodes(self, ring):
        for i in range(100):
            replicas = ring.replicas_for_key(key_for_index(i), 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_replication_capped_at_ring_size(self, ring):
        replicas = ring.replicas_for_token(12345, 10)
        assert len(replicas) == 5

    def test_placement_deterministic(self, ring):
        key = key_for_index(42)
        assert ring.replicas_for_key(key, 3) == ring.replicas_for_key(key, 3)

    def test_higher_rf_extends_lower_rf(self, ring):
        """SimpleStrategy: RF=2's replicas are a prefix of RF=3's."""
        for i in range(50):
            key = key_for_index(i)
            two = ring.replicas_for_key(key, 2)
            three = ring.replicas_for_key(key, 3)
            assert three[:2] == two

    def test_main_replica_stable_across_rf(self, ring):
        for i in range(50):
            key = key_for_index(i)
            assert ring.replicas_for_key(key, 1)[0] == \
                ring.replicas_for_key(key, 4)[0]

    def test_ownership_roughly_uniform(self):
        ring = TokenRing(list(range(10)), vnodes=64, rng=random.Random(3))
        fractions = ownership_fractions(ring)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        assert all(0.02 < f < 0.30 for f in fractions.values())

    def test_keys_spread_over_nodes(self, ring):
        owners = {ring.replicas_for_key(key_for_index(i), 1)[0]
                  for i in range(500)}
        assert owners == {0, 1, 2, 3, 4}

    def test_wraparound_at_domain_edge(self, ring):
        replicas = ring.replicas_for_token(KEY_DOMAIN - 1, 3)
        assert len(replicas) == 3

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            TokenRing([], 8, random.Random(0))


def _walked(ring, strategy, key):
    """``key``'s replicas walked from the ring's token list as it is now —
    no segment cache, no memo: every node clockwise from the key's
    token, kept while the strategy still wants one of its kind."""
    n = len(ring._tokens)
    start = bisect.bisect_right(ring._tokens, token_of(key))
    replicas = []
    if isinstance(strategy, SimpleStrategy):
        for step in range(n):
            owner = ring._owners[(start + step) % n]
            if owner not in replicas \
                    and len(replicas) < strategy.replication:
                replicas.append(owner)
        return replicas
    wanted = dict(strategy.replication_per_dc)
    for step in range(n):
        owner = ring._owners[(start + step) % n]
        dc = strategy.node_datacenter.get(owner)
        if owner not in replicas and wanted.get(dc, 0) > 0:
            replicas.append(owner)
            wanted[dc] -= 1
    return replicas


#: A topology change: bootstrap a fresh node id on the ring itself
#: (``False``) or on a ``clone()`` the ring then ``adopt``s (``True``).
_changes = st.lists(st.booleans(), min_size=1, max_size=4)


class TestPlacementMemo:
    """``SimpleStrategy`` and ``NetworkTopologyStrategy`` answer a key
    they have placed before from the ring's key memo; the ring empties
    it wherever it clears its segment cache (``add_node``, ``adopt``),
    so the answer is always the walk's."""

    @given(simple=st.booleans(), n_nodes=st.integers(1, 7),
           replication=st.integers(1, 4), vnodes=st.integers(1, 6),
           seed=st.integers(0, 2**16),
           tokens=st.lists(st.integers(0, KEY_DOMAIN - 1), min_size=1,
                           max_size=12),
           changes=_changes)
    @settings(max_examples=80, deadline=None)
    def test_memo_answers_the_walk_across_topology_changes(
            self, simple, n_nodes, replication, vnodes, seed, tokens,
            changes):
        ring = TokenRing(list(range(n_nodes)), vnodes, random.Random(seed))
        if simple:
            strategy = SimpleStrategy(ring, replication)
        else:  # datacenters of alternating members, each wanting one
            node_datacenter = {n: f"dc{n % 2}" for n in range(n_nodes)}
            strategy = NetworkTopologyStrategy(
                ring, node_datacenter,
                {dc: 1 for dc in set(node_datacenter.values())})
        keys = [key_for_token(token) for token in tokens]
        rng = random.Random(seed + 1)

        def check():
            for key in keys:
                assert strategy.replicas_for_key(key) \
                    == _walked(ring, strategy, key), key

        check()
        check()  # now every key is answered from the memo
        for through_clone in changes:
            target = ring.clone() if through_clone else ring
            target.add_node(max(ring.node_ids) + 1, rng, replication)
            if through_clone:
                ring.adopt(target)
            check()


class TestConsistencyLevel:
    @pytest.mark.parametrize("cl,rf,expected", [
        (ConsistencyLevel.ONE, 3, 1),
        (ConsistencyLevel.QUORUM, 1, 1),
        (ConsistencyLevel.QUORUM, 2, 2),
        (ConsistencyLevel.QUORUM, 3, 2),
        (ConsistencyLevel.QUORUM, 4, 3),
        (ConsistencyLevel.QUORUM, 5, 3),
        (ConsistencyLevel.QUORUM, 6, 4),
        (ConsistencyLevel.ALL, 1, 1),
        (ConsistencyLevel.ALL, 6, 6),
    ])
    def test_required(self, cl, rf, expected):
        assert cl.required(rf) == expected

    def test_required_is_between_one_and_rf(self):
        # Why ``required`` has no "needs more replicas than RF" refusal.
        for cl in ConsistencyLevel:
            for rf in range(1, 7):
                assert 1 <= cl.required(rf) <= rf

    def test_invalid_rf_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyLevel.ONE.required(0)

    @pytest.mark.parametrize("read,write,rf,strong", [
        (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM, 3, True),
        (ConsistencyLevel.ONE, ConsistencyLevel.ALL, 3, True),
        (ConsistencyLevel.ALL, ConsistencyLevel.ONE, 3, True),
        (ConsistencyLevel.ONE, ConsistencyLevel.ONE, 3, False),
        (ConsistencyLevel.ONE, ConsistencyLevel.QUORUM, 3, False),
        (ConsistencyLevel.ONE, ConsistencyLevel.ONE, 1, True),
    ])
    def test_strong_overlap(self, read, write, rf, strong):
        assert read.is_strong_with(write, rf) is strong
