"""The shared key space.

YCSB identifies records by an insertion index and *scrambles* it so that
hot indexes (zipfian heads, "latest" tails) spread across the cluster —
the paper's "local trap" warning.  Both databases shard on the scrambled
value: HBase by range over pre-split regions, Cassandra by token ring.

Keys are ``user`` + zero-padded decimal so lexicographic order equals
numeric order (HBase range scans rely on this).
"""

from __future__ import annotations

from functools import cache

__all__ = ["KEY_DOMAIN", "fnv64", "key_for_index", "key_for_token", "token_of"]

#: Tokens live in [0, KEY_DOMAIN).
KEY_DOMAIN = 1 << 63

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's hash)."""
    h = _FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


#: :func:`_fnv64`, memoised for the scrambled-zipfian generators, which
#: hash the same hot ranks over and over (the pure-Python 8-round loop is
#: a measurable slice of the per-op profile).  A pure function, so the
#: memo cannot perturb determinism.
fnv64 = cache(_fnv64)


def key_for_token(token: int) -> str:
    """Render a token as a record key (fixed width, order-preserving)."""
    return f"user{token:019d}"


@cache
def key_for_index(index: int) -> str:
    """Key of the ``index``-th inserted record (scrambled placement).

    Memoised for the same reason as :func:`fnv64`: the zipfian head means
    a handful of indexes account for most rendered keys.  It hashes
    through the uncached :func:`_fnv64`, so each record's key is held
    once, here.
    """
    return key_for_token(_fnv64(index) % KEY_DOMAIN)


def token_of(key: str) -> int:
    """Inverse of :func:`key_for_token`."""
    return int(key[4:])
