"""Sorted in-memory write buffer (HBase MemStore / Cassandra memtable)."""

from __future__ import annotations

import bisect
from typing import Any, Optional

__all__ = ["Memtable"]


class Memtable:
    """A sorted map of key -> (value, timestamp, size) with byte accounting.

    Updates are last-write-wins by timestamp, matching both systems'
    cell-version semantics (Cassandra resolves by client timestamp; HBase
    by cell version — modelled identically here).
    """

    def __init__(self) -> None:
        self._data: dict[str, tuple[Any, float, int]] = {}
        self._sorted_keys: list[str] = []
        #: Accumulated bytes including superseded versions (they occupy
        #: heap until the flush rewrites the data), mirroring MemStore
        #: accounting.
        self.size_bytes = 0

    def put(self, key: str, value: Any, size: int, timestamp: float) -> None:
        """Insert/overwrite ``key``; stale timestamps lose (LWW)."""
        existing = self._data.get(key)
        if existing is None:
            bisect.insort(self._sorted_keys, key)
        elif timestamp < existing[1]:
            return
        self.size_bytes += size
        self._data[key] = (value, timestamp, size)

    def get(self, key: str) -> Optional[tuple[Any, float, int]]:
        """Return ``(value, timestamp, size)`` or None."""
        return self._data.get(key)

    def scan_from(self, start_key: str, limit: int) -> list[tuple[str, Any, float, int]]:
        """Up to ``limit`` entries with key >= ``start_key``, in key order."""
        idx = bisect.bisect_left(self._sorted_keys, start_key)
        data = self._data
        return [(key, *data[key])
                for key in self._sorted_keys[idx:idx + limit]]

    def items_sorted(self) -> list[tuple[str, Any, float, int]]:
        """All live entries in key order (used by flush)."""
        data = self._data
        return [(key, *data[key]) for key in self._sorted_keys]
