"""Unit tests for the bloom filter."""

import pytest

from repro.storage.bloom import BloomFilter

pytestmark = pytest.mark.hashseed


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=500, fp_rate=0.01)
        keys = [f"user{i:06d}" for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in keys)

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter(expected_items=2000, fp_rate=0.01)
        for i in range(2000):
            bloom.add(f"present{i}")
        false_positives = sum(
            bloom.might_contain(f"absent{i}") for i in range(5000))
        assert false_positives / 5000 < 0.05  # generous bound over 1 % target

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_items=10)
        assert not bloom.might_contain("anything")

    def test_invalid_fp_rate_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.5)

    def test_sizing_grows_with_items(self):
        small = BloomFilter(100, 0.01)
        large = BloomFilter(10_000, 0.01)
        assert large.n_bits > small.n_bits

    def test_tighter_fp_rate_uses_more_bits(self):
        loose = BloomFilter(1000, 0.1)
        tight = BloomFilter(1000, 0.001)
        assert tight.n_bits > loose.n_bits

    def test_counts_items(self):
        bloom = BloomFilter(10)
        bloom.add("a")
        bloom.add("b")
        assert bloom.items_added == 2
