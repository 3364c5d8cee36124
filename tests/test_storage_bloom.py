"""Unit tests for the bloom filter."""

import pytest

from repro.storage.bloom import FP_RATE, BloomFilter

pytestmark = pytest.mark.hashseed


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=500)
        keys = [f"user{i:06d}" for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in keys)

    def test_false_positive_rate_near_target(self):
        assert FP_RATE == 0.01
        bloom = BloomFilter(expected_items=2000)
        for i in range(2000):
            bloom.add(f"present{i}")
        false_positives = sum(
            bloom.might_contain(f"absent{i}") for i in range(5000))
        assert false_positives / 5000 < 0.05  # generous bound over 1 % target

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=10)
        assert not bloom.might_contain("anything")

    def test_sizing_grows_with_items(self):
        small = BloomFilter(100)
        large = BloomFilter(10_000)
        assert large.n_bits > small.n_bits

    def test_counts_items(self):
        bloom = BloomFilter(10)
        bloom.add("a")
        bloom.add("b")
        assert bloom.items_added == 2
