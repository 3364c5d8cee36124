"""Bloom filter over SSTable keys.

A real bit-level implementation (a ``bytearray`` used as a bit set).
SSTable lookups consult it before touching the disk, so its false
positives translate into real (simulated) wasted block reads — the same
trade-off the physical systems make.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable

__all__ = ["BloomFilter", "FP_RATE"]

#: The false-positive rate every filter is sized for.
FP_RATE = 0.01


class BloomFilter:
    """Fixed-size bloom filter sized for :data:`FP_RATE` at
    ``expected_items`` keys."""

    def __init__(self, expected_items: int) -> None:
        if expected_items < 1:
            expected_items = 1
        # Standard sizing: m = -n ln p / (ln 2)^2 ; k = (m/n) ln 2
        self.n_bits = max(8, int(-expected_items * math.log(FP_RATE)
                                 / (math.log(2) ** 2)))
        self.n_hashes = max(1, round(self.n_bits / expected_items * math.log(2)))
        #: Bit ``i`` lives at ``_bits[i >> 3] >> (i & 7) & 1`` — a probe
        #: indexes one byte instead of shifting an n_bits-wide integer.
        self._bits = bytearray(self.n_bits // 8 + 1)
        self.items_added = 0

    def add(self, key: str) -> None:
        self.add_all((key,))

    def add_all(self, keys: Iterable[str]) -> None:
        """:meth:`add` each of ``keys``: the same bits, one call.

        Hot path (every memtable flush and compaction hashes every entry
        of the run it writes): double hashing, ``h1 + i * h2`` for the
        i-th probe.
        """
        n = self.n_bits
        bits = self._bits
        probes = range(self.n_hashes)
        crc32 = zlib.crc32
        adler32 = zlib.adler32
        added = 0
        for key in keys:
            data = key.encode()
            h = crc32(data)
            h2 = adler32(data) | 1  # odd, so strides cover the table
            for _ in probes:
                i = h % n
                bits[i >> 3] |= 1 << (i & 7)
                h += h2
            added += 1
        self.items_added += added

    def might_contain(self, key: str) -> bool:
        """False means *definitely absent*; True means *probably present*."""
        data = key.encode()
        return self.might_contain_hashed(zlib.crc32(data),
                                         zlib.adler32(data) | 1)

    def might_contain_hashed(self, h1: int, h2: int) -> bool:
        """:meth:`might_contain` for a key whose two hashes the caller
        has already taken — ``crc32`` of its UTF-8 bytes, and ``adler32``
        of them with the low bit set — so a lookup that asks many
        filters hashes once."""
        n = self.n_bits
        bits = self._bits
        for _ in range(self.n_hashes):
            i = h1 % n
            if not bits[i >> 3] >> (i & 7) & 1:
                return False
            h1 += h2
        return True
