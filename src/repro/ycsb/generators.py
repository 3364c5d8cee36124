"""Key-choice and value generators (ports of the YCSB generator family).

Each generator draws from an injected ``random.Random`` stream so whole
experiments stay reproducible (see :class:`repro.sim.rng.RngRegistry`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import truediv
from typing import Generic, Sequence, TypeVar

from repro.keyspace import fnv64

__all__ = [
    "CounterGenerator",
    "DiscreteGenerator",
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
]


class CounterGenerator:
    """Monotonic counter — the insertion-order key sequence."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    def last(self) -> int:
        """Highest value handed out so far (-1 if none)."""
        return self._next - 1


class UniformGenerator:
    """Uniform integers over ``[lo, hi]`` inclusive."""

    def __init__(self, lo: int, hi: int, rng) -> None:
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self._rng = rng

    def next(self) -> int:
        return self._rng.randint(self.lo, self.hi)


class ZipfianGenerator:
    """Zipfian over ``[0, n_items)`` — popular items are the low ranks.

    Implements the Gray et al. rejection-free method YCSB uses, with the
    zeta constant computed once for the item count (kept fixed per run,
    as YCSB's ScrambledZipfian does).
    """

    ZIPFIAN_CONSTANT = 0.99

    def __init__(self, n_items: int, rng,
                 theta: float = ZIPFIAN_CONSTANT) -> None:
        if n_items < 1:
            raise ValueError("need at least one item")
        self.n_items = n_items
        self.theta = theta
        self._rng = rng
        self._zeta = self._zeta_static(n_items, theta)
        self._zeta2 = self._zeta_static(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # For n_items <= 2 every draw resolves in the uz < 1 + 0.5**theta
        # fast paths of next(), so eta is unused — and its denominator is
        # exactly zero at n_items == 2 (zeta == zeta2).
        if n_items <= 2:
            self._eta = 0.0
        else:
            self._eta = ((1 - (2.0 / n_items) ** (1 - theta))
                         / (1 - self._zeta2 / self._zeta))

    @staticmethod
    @lru_cache(maxsize=64)
    def _zeta_static(n: int, theta: float) -> float:
        """O(n) — once per size.

        Every open-loop run builds a generator over its whole user
        population and every workload one over its records; the sizes
        repeat.  The terms are ``1.0 / (i ** theta)`` in rank order,
        added by ``math.fsum``: the correctly rounded sum, so the same
        float on every interpreter (``sum()`` is compensated from Python
        3.12 and naive before).  ``map`` feeds the terms without a Python
        frame per term.
        """
        return math.fsum(map(truediv, repeat(1.0),
                             map(pow, range(1, n + 1), repeat(theta))))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zeta
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        # As u -> 1 the base (eta*u - eta + 1) can round up to exactly
        # 1.0, making the product n_items itself — outside the
        # [0, n_items) contract — so clamp to the last rank.
        rank = int(self.n_items
                   * (self._eta * u - self._eta + 1) ** self._alpha)
        return rank if rank < self.n_items else self.n_items - 1


class ScrambledZipfianGenerator:
    """Zipfian popularity spread uniformly over the item space.

    YCSB hashes the zipfian rank so the hottest records are not adjacent
    — the defence against the paper's "local trap" (§3.1).
    """

    def __init__(self, n_items: int, rng) -> None:
        self.n_items = n_items
        self._zipf = ZipfianGenerator(n_items, rng)

    def next(self) -> int:
        return fnv64(self._zipf.next()) % self.n_items

    def next_below(self, limit: int) -> int:
        """Scrambled zipfian over the first ``limit`` items."""
        if limit < 1:
            return 0
        return fnv64(self._zipf.next() % limit) % limit


class LatestGenerator:
    """Skewed towards the most recently inserted records.

    ``next()`` returns ``last_insert - zipfian()`` (clamped at 0): rank 0
    is the newest record — the paper's *read latest* workload (feeds on
    Twitter/Google+).
    """

    def __init__(self, counter: CounterGenerator, rng) -> None:
        self._counter = counter
        self._rng = rng
        self._zipf_cache: ZipfianGenerator | None = None

    def next(self) -> int:
        last = self._counter.last()
        if last <= 0:
            return 0
        zipf = self._zipf_cache
        if zipf is None or zipf.n_items != last + 1:
            # Item count grows with inserts; rebuilding zeta each time
            # would be O(n) per op, so reuse until the count grew 10 %.
            if zipf is None or last + 1 > zipf.n_items * 1.1:
                zipf = ZipfianGenerator(last + 1, self._rng)
                self._zipf_cache = zipf
        offset = zipf.next()
        return max(0, last - min(offset, last))


_Outcome = TypeVar("_Outcome")


class DiscreteGenerator(Generic[_Outcome]):
    """Weighted choice over outcomes (YCSB operation chooser): each draw
    returns one of the outcomes it was built with, itself — the workload
    holds ``OperationType`` members, so a draw costs no lookup."""

    def __init__(self, weighted: Sequence[tuple[_Outcome, float]],
                 rng) -> None:
        if not weighted:
            raise ValueError("need at least one outcome")
        total = sum(w for _, w in weighted)
        if total <= 0 or any(w < 0 for _, w in weighted):
            raise ValueError("weights must be non-negative and sum > 0")
        self._labels = [label for label, _ in weighted]
        self._cumulative: list[float] = []
        acc = 0.0
        for _, weight in weighted:
            acc += weight / total
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0  # guard against float drift
        self._rng = rng

    def next(self) -> _Outcome:
        u = self._rng.random()
        for label, edge in zip(self._labels, self._cumulative):
            if u <= edge:
                return label
        return self._labels[-1]  # pragma: no cover - float guard


def zipfian_pmf(n_items: int, theta: float = ZipfianGenerator.ZIPFIAN_CONSTANT) \
        -> list[float]:
    """Exact zipfian probabilities (testing aid, O(n))."""
    zeta = ZipfianGenerator._zeta_static(n_items, theta)
    return [1.0 / (i ** theta) / zeta for i in range(1, n_items + 1)]
