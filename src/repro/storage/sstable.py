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
from operator import lt
from typing import Any, Optional

from repro.storage.bloom import BloomFilter

__all__ = ["SSTable"]


class SSTable:
    """One immutable sorted run, split into fixed-size blocks."""

    _next_id = 0
    #: The medium's handle for the written run
    #: (:meth:`~repro.storage.lsm.StorageMedium.write_run`); ``None``
    #: until a flush or compaction writes it, and for an ingested run.
    file_handle = None

    def __init__(self, entries: list[tuple[str, Any, float, int]],
                 block_bytes: int) -> None:
        """Build from flush/compaction output (``entries`` sorted by key)."""
        SSTable._next_id += 1
        self.sstable_id = SSTable._next_id
        self.block_bytes = block_bytes
        # Built in bulk: a flush or compaction hands over thousands of
        # entries, so nothing below calls a method per entry.
        keys = [entry[0] for entry in entries]
        if not all(map(lt, keys, keys[1:])):
            for prev_key, key in zip(keys, keys[1:]):
                if key <= prev_key:
                    raise ValueError(
                        f"entries not strictly sorted at {key!r}")
        self._keys: list[str] = keys
        self._values: dict[str, tuple[Any, float, int]] = {
            key: (value, ts, size) for key, value, ts, size in entries}
        #: block number for each key position (parallel to ``_keys``):
        #: an entry opens a new block when it would overflow a non-empty
        #: one.
        sizes = [entry[3] for entry in entries]
        self._key_block: list[int] = [0] * len(sizes)
        key_block = self._key_block
        block_no = 0
        block_fill = 0
        for position, size in enumerate(sizes):
            if block_fill + size > block_bytes and block_fill > 0:
                block_no += 1
                block_fill = 0
            key_block[position] = block_no
            block_fill += size
        self.n_blocks = block_no + 1 if entries else 0
        self.size_bytes = sum(sizes)
        self.bloom = BloomFilter(max(1, len(entries)))
        self.bloom.add_all(keys)

    def might_contain(self, key: str) -> bool:
        """Bloom-filter + key-range check — no I/O.

        :meth:`LsmTree._probe <repro.storage.lsm.LsmTree._probe>` writes
        these tests out, with a membership test of the run's own keys
        first (which a bloom filter never contradicts)."""
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
