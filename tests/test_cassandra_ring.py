"""Unit tests for the token ring and consistency arithmetic."""

import random

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.partitioner import TokenRing
from repro.keyspace import KEY_DOMAIN, key_for_index


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
        fractions = ring.ownership_fractions()
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
