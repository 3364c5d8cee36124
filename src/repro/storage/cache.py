"""LRU block cache (HBase BlockCache / Cassandra key-row cache analogue).

Caches ``(sstable_id, block_no)`` keys with a byte budget.  Hit/miss
counters feed the experiment reports; the budget is deliberately small
relative to the dataset in the default configs so that — as the paper's
methodology demands — read benchmarks measure disk, not memory.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["BlockCache"]


class BlockCache:
    """Byte-budgeted LRU over storage blocks."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[int, int], int] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0

    def contains(self, sstable_id: int, block_no: int) -> bool:
        """Check + touch: a hit refreshes the block's recency."""
        key = (sstable_id, block_no)
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, sstable_id: int, block_no: int, size_bytes: int) -> None:
        """Add a block read from disk, evicting LRU blocks as needed."""
        if self.capacity_bytes == 0:
            return
        key = (sstable_id, block_no)
        if key in self._entries:
            self.used_bytes -= self._entries[key]
            self._entries.move_to_end(key)
        self._entries[key] = size_bytes
        self.used_bytes += size_bytes
        while self.used_bytes > self.capacity_bytes and self._entries:
            _, evicted_size = self._entries.popitem(last=False)
            self.used_bytes -= evicted_size

    def evict_sstable(self, sstable_id: int) -> None:
        """Drop all blocks of a compacted-away SSTable."""
        stale = [k for k in self._entries if k[0] == sstable_id]
        for key in stale:
            self.used_bytes -= self._entries.pop(key)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
