"""Cache-aside read cache: trade staleness for goodput, measurably.

The last line of defense in a flash crowd is not sending the request at
all.  A small TTL'd LRU in front of the binding serves repeat reads of
the zipf-hot keys locally — during a surge the hot head of the
popularity curve dominates, so even a modest cache absorbs most of the
spike.  The price is bounded staleness: a cached value may be up to
``ttl_s`` older than the store's.  Because the consistency oracle's
recorder wraps *outside* this binding, every cache-served read lands in
the Jepsen-style history and the PR-4 checkers price that staleness
exactly (``max_staleness_lag_s`` vs the TTL is the QoD-style budget
check the surge campaign asserts).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generator

from repro.sim.kernel import Environment
from repro.ycsb.db import DbBinding

__all__ = ["CacheAsideBinding"]


class CacheAsideBinding:
    """TTL + LRU cache-aside wrapper around a :class:`DbBinding`.

    - **read hit** (entry younger than ``ttl_s``): served locally, zero
      RPCs, zero simulated time.
    - **read miss**: delegated, then populated (only found values are
      cached — negative caching would trade correctness for nothing the
      campaign measures).
    - **write**: delegated, then the key is invalidated *after* the
      write completes — so within one client session a read issued
      after an acknowledged write never sees the overwritten cache
      entry (read-your-writes is preserved; only cross-session
      staleness remains, bounded by the TTL).
    - **scan**: always delegated (range results are not cached).
    """

    def __init__(self, inner: DbBinding, env: Environment,
                 ttl_s: float, capacity: int) -> None:
        if ttl_s <= 0 or capacity < 1:
            raise ValueError("ttl_s must be positive and capacity >= 1")
        self.inner = inner
        self.env = env
        self.ttl_s = ttl_s
        self.capacity = capacity
        #: key -> (cached_at, (value, timestamp)); LRU order.
        self._entries: OrderedDict[str, tuple[float, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def _store(self, key: str, result: Any) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]
        elif len(entries) >= self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = (self.env.now, result)

    def _invalidate(self, key: str) -> None:
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def fresh(self, key: str) -> bool:
        """Whether a read of ``key`` would be served locally right now.

        A pure predicate (no counters, no LRU movement): the open-loop
        client uses it at dispatch to route a would-be hit *around*
        admission control — a request the backend never sees should not
        spend a rate-limit token or a leveling-queue slot.  The actual
        serving still happens in :meth:`read`, inside the recorder, so
        the oracle prices the (possibly stale) observation.
        """
        entry = self._entries.get(key)
        return (entry is not None
                and self.env.now - entry[0] <= self.ttl_s)

    def read(self, key: str, size: int) -> Generator:
        entry = self._entries.get(key)
        if entry is not None:
            cached_at, result = entry
            if self.env.now - cached_at <= self.ttl_s:
                self.hits += 1
                self._entries.move_to_end(key)
                yield from ()  # a hit costs no simulated time
                return result
            self._entries.pop(key, None)  # expired
        self.misses += 1
        result = yield from self.inner.read(key, size)
        if result is not None:
            self._store(key, result)
        return result

    def write(self, key: str, value: Any, size: int) -> Generator:
        result = yield from self.inner.write(key, value, size)
        self._invalidate(key)
        return result

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        rows = yield from self.inner.scan(start_key, limit, record_bytes)
        return rows

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "hit_rate": self.hit_rate,
                "invalidations": self.invalidations,
                "evictions": self.evictions}
