"""Compaction policy (Cassandra STCS, HBase minor compaction).

Pure policy + merge logic; the I/O charging lives in
:class:`~repro.storage.lsm.LsmTree`, which drives the merge as a
background simulation process.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.storage.sstable import SSTable

__all__ = ["merge_tables", "pick_compaction"]


def pick_compaction(sstables: list[SSTable], min_batch: int = 4,
                    max_batch: int = 10,
                    bucket_ratio: float = 2.0) -> Optional[list[SSTable]]:
    """Choose a batch of similar-sized tables to merge, or None.

    Size-tiered selection: sort by size, walk buckets of tables whose
    sizes are within ``bucket_ratio`` of the bucket's smallest member, and
    return the first bucket with at least ``min_batch`` members.
    """
    if len(sstables) < min_batch:
        return None
    ordered = sorted(sstables, key=lambda t: t.size_bytes)
    bucket: list[SSTable] = []
    for table in ordered:
        if not bucket:
            bucket = [table]
            continue
        if table.size_bytes <= bucket[0].size_bytes * bucket_ratio or \
                bucket[0].size_bytes == 0:
            bucket.append(table)
            if len(bucket) == max_batch:
                return bucket
        else:
            if len(bucket) >= min_batch:
                return bucket
            bucket = [table]
    return bucket if len(bucket) >= min_batch else None


def merge_tables(tables: list[SSTable]) -> list[tuple[str, Any, float, int]]:
    """Merge entries of ``tables`` (any order) with last-write-wins.

    Returns entries sorted by key; for duplicate keys the entry with the
    greatest timestamp survives (ties broken by later table in the list,
    so pass tables oldest-first for deterministic results).
    """
    merged: dict[str, tuple[Any, float, int]] = {}
    for table in tables:
        for key, value, ts, size in table.items_sorted():
            existing = merged.get(key)
            if existing is None or ts >= existing[1]:
                merged[key] = (value, ts, size)
    return [(k, *merged[k]) for k in sorted(merged)]
