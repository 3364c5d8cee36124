"""Unit tests for compaction policy and merge logic."""

from repro.storage.compaction import (
    BUCKET_RATIO, merge_tables, pick_compaction)
from repro.storage.sstable import SSTable


def make_table(entries):
    return SSTable(sorted(entries), block_bytes=1024)


def sized_table(n, size=100, prefix="k"):
    return make_table([(f"{prefix}{i:05d}", i, 1.0, size) for i in range(n)])


class TestPickCompaction:
    def test_no_batch_below_min(self):
        tables = [sized_table(10) for _ in range(3)]
        assert pick_compaction(tables, min_batch=4, max_batch=10) is None

    def test_similar_sizes_batched(self):
        tables = [sized_table(10) for _ in range(5)]
        batch = pick_compaction(tables, min_batch=4, max_batch=10)
        assert batch is not None and len(batch) == 5

    def test_dissimilar_sizes_not_batched(self):
        # Each table ten times the last: past BUCKET_RATIO, no bucket.
        tables = [sized_table(10), sized_table(100), sized_table(1000)]
        assert pick_compaction(tables, min_batch=2, max_batch=10) is None

    def test_sizes_within_the_ratio_batched(self):
        tables = [sized_table(10), sized_table(int(10 * BUCKET_RATIO)),
                  sized_table(int(10 * BUCKET_RATIO) + 1)]
        batch = pick_compaction(tables, min_batch=2, max_batch=10)
        assert [t.size_bytes for t in batch] == [1_000, 2_000]

    def test_max_batch_respected(self):
        tables = [sized_table(10) for _ in range(20)]
        batch = pick_compaction(tables, min_batch=4, max_batch=6)
        assert len(batch) == 6

    def test_bucket_of_small_tables_found_among_large(self):
        tables = [sized_table(1000)] + [sized_table(10) for _ in range(4)]
        batch = pick_compaction(tables, min_batch=4, max_batch=10)
        assert batch is not None
        assert all(t.size_bytes == 10 * 100 for t in batch)


class TestMergeTables:
    def test_merge_distinct_keys(self):
        a = make_table([("a", 1, 1.0, 10)])
        b = make_table([("b", 2, 1.0, 10)])
        merged = merge_tables([a, b])
        assert [k for k, *_ in merged] == ["a", "b"]

    def test_newest_timestamp_wins(self):
        old = make_table([("k", "old", 1.0, 10)])
        new = make_table([("k", "new", 2.0, 10)])
        for order in ([old, new], [new, old]):
            merged = merge_tables(order)
            assert merged == [("k", "new", 2.0, 10)]

    def test_tie_breaks_toward_later_table(self):
        first = make_table([("k", "first", 1.0, 10)])
        second = make_table([("k", "second", 1.0, 10)])
        merged = merge_tables([first, second])
        assert merged[0][1] == "second"

    def test_output_sorted(self):
        a = make_table([("c", 1, 1.0, 10), ("d", 1, 1.0, 10)])
        b = make_table([("a", 1, 1.0, 10), ("b", 1, 1.0, 10)])
        merged = merge_tables([a, b])
        keys = [k for k, *_ in merged]
        assert keys == sorted(keys)

    def test_merge_reduces_duplicates(self):
        tables = [make_table([(f"k{i}", t, float(t), 10) for i in range(5)])
                  for t in range(3)]
        merged = merge_tables(tables)
        assert len(merged) == 5
        assert all(ts == 2.0 for _, _, ts, _ in merged)
