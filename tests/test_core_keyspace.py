"""Unit tests for the shared key space."""

from repro.keyspace import (
    KEY_DOMAIN,
    fnv64,
    key_for_index,
    key_for_token,
    token_of,
)


class TestKeyspace:
    def test_token_roundtrip(self):
        for token in (0, 1, 123456789, KEY_DOMAIN - 1):
            assert token_of(key_for_token(token)) == token

    def test_keys_sort_like_tokens(self):
        tokens = [5, 500, 123456, KEY_DOMAIN - 1, 42]
        keys = [key_for_token(t) for t in tokens]
        assert sorted(keys) == [key_for_token(t) for t in sorted(tokens)]

    def test_fixed_width(self):
        assert len(key_for_token(0)) == len(key_for_token(KEY_DOMAIN - 1))

    def test_fnv64_deterministic(self):
        assert fnv64(42) == fnv64(42)
        assert fnv64(42) != fnv64(43)

    def test_fnv64_range(self):
        for i in range(100):
            assert 0 <= fnv64(i) < 1 << 64

    def test_index_keys_scrambled(self):
        """Adjacent insertion indexes land far apart (anti-local-trap)."""
        tokens = [token_of(key_for_index(i)) for i in range(10)]
        gaps = [abs(a - b) for a, b in zip(tokens, tokens[1:])]
        assert min(gaps) > KEY_DOMAIN // 10_000

    def test_index_keys_unique(self):
        keys = {key_for_index(i) for i in range(10_000)}
        assert len(keys) == 10_000

    def test_index_keys_spread_over_domain(self):
        tokens = sorted(token_of(key_for_index(i)) for i in range(1000))
        # Quartiles of a uniform spread.
        assert tokens[250] > KEY_DOMAIN // 8
        assert tokens[750] < KEY_DOMAIN * 7 // 8

    def test_a_key_is_memoised_once(self):
        """``key_for_index`` holds each rendered key; its hash goes
        through no second memo."""
        n = 500
        fnv64.cache_clear()
        key_for_index.cache_clear()
        keys = [key_for_index(i) for i in range(n)]
        assert key_for_index.cache_info().currsize == n
        assert fnv64.cache_info().currsize == 0
        assert keys == [key_for_index.__wrapped__(i) for i in range(n)]
