"""Unit tests for the LRU block cache."""

import pytest

from repro.storage.cache import BlockCache


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = BlockCache(10_000)
        assert not cache.contains(1, 0)
        cache.insert(1, 0, 4096)
        assert cache.contains(1, 0)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = BlockCache(3 * 1024)
        for block in range(3):
            cache.insert(1, block, 1024)
        cache.contains(1, 0)  # touch 0 -> most recent
        cache.insert(1, 3, 1024)  # evicts block 1 (least recent)
        assert cache.contains(1, 0)
        assert not cache.contains(1, 1)

    def test_byte_budget_enforced(self):
        cache = BlockCache(4096)
        for block in range(10):
            cache.insert(1, block, 1024)
        assert cache.used_bytes <= 4096
        assert len(cache._entries) <= 4

    def test_zero_capacity_caches_nothing(self):
        cache = BlockCache(0)
        cache.insert(1, 0, 100)
        assert not cache.contains(1, 0)

    def test_reinsert_updates_size(self):
        cache = BlockCache(10_000)
        cache.insert(1, 0, 1000)
        cache.insert(1, 0, 2000)
        assert cache.used_bytes == 2000
        assert len(cache._entries) == 1

    def test_evict_sstable_drops_all_its_blocks(self):
        cache = BlockCache(100_000)
        for block in range(5):
            cache.insert(7, block, 100)
        cache.insert(8, 0, 100)
        cache.evict_sstable(7)
        assert not cache.contains(7, 0)
        assert cache.contains(8, 0)
        assert cache.used_bytes == 100

    def test_hit_rate(self):
        cache = BlockCache(10_000)
        cache.insert(1, 0, 100)
        cache.contains(1, 0)
        cache.contains(1, 1)
        # 1 hit, 2 misses (initial check counted a miss? no - insert has no check)
        assert cache.hit_rate == pytest.approx(1 / 2)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)
