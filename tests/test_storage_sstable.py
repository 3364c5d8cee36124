"""Unit tests for SSTables."""

import pytest

from repro.storage.sstable import SSTable

pytestmark = pytest.mark.hashseed


def build(n=100, size=100, block_bytes=1024, prefix="k"):
    entries = [(f"{prefix}{i:05d}", i, 1.0, size) for i in range(n)]
    return SSTable(entries, block_bytes=block_bytes)


class TestSSTable:
    def test_get_roundtrip(self):
        table = build(50)
        assert table.get("k00007") == (7, 1.0, 100)
        assert table.get("missing") is None

    def test_len_and_size(self):
        table = build(50, size=100)
        assert len(table.items_sorted()) == 50
        assert table.size_bytes == 5000

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValueError):
            SSTable([("b", 1, 1.0, 10), ("a", 2, 1.0, 10)], block_bytes=1024)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            SSTable([("a", 1, 1.0, 10), ("a", 2, 2.0, 10)], block_bytes=1024)

    def test_block_layout_respects_block_size(self):
        table = build(100, size=100, block_bytes=1000)
        # 10 entries of 100 B per 1000 B block -> 10 blocks.
        assert table.n_blocks == 10
        assert table.block_of("k00000") == 0
        assert table.block_of("k00099") == 9

    def test_might_contain_range_prefilter(self):
        table = build(10)
        assert not table.might_contain("a-below-range")
        assert not table.might_contain("z-above-range")
        assert table.might_contain("k00005")

    def test_might_contain_no_false_negatives(self):
        table = build(200)
        assert all(table.might_contain(f"k{i:05d}") for i in range(200))

    def test_blocks_for_range_contiguous(self):
        table = build(100, size=100, block_bytes=1000)
        blocks, entries = table.blocks_for_range("k00015", 10)
        assert [k for k, *_ in entries] == [f"k{i:05d}" for i in range(15, 25)]
        assert blocks == [1, 2]

    def test_blocks_for_range_past_end(self):
        table = build(10)
        blocks, entries = table.blocks_for_range("k00009", 5)
        assert len(entries) == 1
        blocks, entries = table.blocks_for_range("z", 5)
        assert blocks == [] and entries == []

    def test_items_sorted_roundtrip(self):
        table = build(20)
        items = table.items_sorted()
        assert len(items) == 20
        assert items == sorted(items)

    def test_unique_ids(self):
        a, b = build(5), build(5)
        assert a.sstable_id != b.sstable_id
