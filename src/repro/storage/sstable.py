"""Immutable sorted runs (HBase HFiles / Cassandra SSTables).

An SSTable keeps its real keys and versions (for correctness) plus just
enough physical layout — a block index and a bloom filter — to charge
realistic I/O: point reads fetch one data block, scans fetch the
contiguous block range covering the scanned keys.

Entries everywhere in the storage layer are ``(key, value, timestamp,
size)`` tuples; ``size`` is the entry's on-disk footprint in bytes.
"""

from __future__ import annotations

import bisect
from typing import Any, Optional

from repro.storage.bloom import BloomFilter

__all__ = ["SSTable"]

#: Bloom filter false-positive rate of every run.
BLOOM_FP_RATE = 0.01


class SSTable:
    """One immutable sorted run, split into fixed-size blocks."""

    _next_id = 0

    def __init__(self, entries: list[tuple[str, Any, float, int]],
                 block_bytes: int) -> None:
        """Build from flush/compaction output (``entries`` sorted by key)."""
        SSTable._next_id += 1
        self.sstable_id = SSTable._next_id
        self.block_bytes = block_bytes
        self._keys: list[str] = []
        self._values: dict[str, tuple[Any, float, int]] = {}
        #: block number for each key position (parallel to ``_keys``).
        self._key_block: list[int] = []
        self.bloom = BloomFilter(max(1, len(entries)), BLOOM_FP_RATE)
        self.size_bytes = 0

        block_no = 0
        block_fill = 0
        prev_key: Optional[str] = None
        for key, value, ts, size in entries:
            if prev_key is not None and key <= prev_key:
                raise ValueError(f"entries not strictly sorted at {key!r}")
            prev_key = key
            if block_fill + size > block_bytes and block_fill > 0:
                block_no += 1
                block_fill = 0
            self._keys.append(key)
            self._key_block.append(block_no)
            self._values[key] = (value, ts, size)
            self.bloom.add(key)
            block_fill += size
            self.size_bytes += size
        self.n_blocks = block_no + 1 if entries else 0

    def might_contain(self, key: str) -> bool:
        """Bloom-filter + key-range check — no I/O."""
        if not self._keys:
            return False
        if key < self._keys[0] or key > self._keys[-1]:
            return False
        return self.bloom.might_contain(key)

    def block_of(self, key: str) -> int:
        """Data block a point lookup for ``key`` would fetch."""
        idx = bisect.bisect_left(self._keys, key)
        if idx >= len(self._keys):
            idx = len(self._keys) - 1
        return self._key_block[idx]

    def get(self, key: str) -> Optional[tuple[Any, float, int]]:
        """Return ``(value, timestamp, size)`` or None (logical, no I/O)."""
        return self._values.get(key)

    def blocks_for_range(self, start_key: str, limit: int) \
            -> tuple[list[int], list[tuple[str, Any, float, int]]]:
        """Blocks and entries a scan of ``limit`` keys from ``start_key`` touches."""
        idx = bisect.bisect_left(self._keys, start_key)
        picked = self._keys[idx:idx + limit]
        if not picked:
            return [], []
        blocks = sorted({self._key_block[i]
                         for i in range(idx, idx + len(picked))})
        entries = [(k, *self._values[k]) for k in picked]
        return blocks, entries

    def items_sorted(self) -> list[tuple[str, Any, float, int]]:
        """All entries in key order (used by compaction)."""
        return [(k, *self._values[k]) for k in self._keys]
