"""Retries with exponential backoff, capped by a retry *budget*.

The undefended client retries every failure — which is exactly how a
10x flash crowd becomes a 40x one: each timed-out request respawns as
several more while its original work may still be queued server-side
(retry amplification, the engine of metastable failure).  The budget
(Finagle's ``RetryBudget``) bounds the damage structurally: each first
attempt deposits ``ratio`` tokens into a bucket, each retry withdraws
one, so sustained retries can never exceed ``ratio`` x the request rate
no matter how the store behaves.  A small constant trickle
(``min_retries_per_s``) keeps isolated failures retryable even at low
traffic.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.clienttier.tokens import TokenBucket
from repro.cluster.hedging import backoff_delay
from repro.cluster.topology import DeadlineExceeded
from repro.sim.kernel import ModelledFailure
from repro.ycsb.db import DbBinding

__all__ = ["RetryBinding", "RetryBudget"]

#: The retry budget's unconditional trickle, in retries per second.
MIN_RETRIES_PER_S = 1.0
#: The most unused retry budget that can accumulate (the bucket starts
#: full).
BURST = 20.0
#: The longest backoff before a retry, in seconds.
BACKOFF_CAP_S = 1.0


class RetryBudget:
    """Token-bucket cap on the client's retry rate.

    ``ratio`` is the fraction of first attempts earned back as retry
    permission (0.2 = at most ~20% extra load from retries);
    :data:`MIN_RETRIES_PER_S` is the unconditional trickle;
    :data:`BURST` caps how much unused budget can accumulate.
    """

    def __init__(self, clock, ratio: float) -> None:
        if ratio < 0:
            raise ValueError("ratio must be >= 0")
        self.ratio = ratio
        self._bucket = TokenBucket(rate=MIN_RETRIES_PER_S, burst=BURST,
                                   clock=clock)

    def record_request(self) -> None:
        """A first attempt was issued: earn ``ratio`` tokens."""
        self._bucket.deposit(self.ratio)

    def try_retry(self) -> bool:
        """Withdraw permission for one retry; False = budget exhausted."""
        return self._bucket.try_take(1.0)


class RetryBinding:
    """A :class:`~repro.ycsb.db.DbBinding` that retries failures.

    Up to ``retries`` extra attempts per operation that fails with a
    :class:`~repro.sim.kernel.ModelledFailure` (never a spent deadline),
    each preceded by equal-jitter exponential backoff from ``backoff_s``
    capped at :data:`BACKOFF_CAP_S`
    (:func:`repro.cluster.hedging.backoff_delay` with the injected sim RNG
    stream, so the schedule is deterministic per seed).  With
    ``budget=None`` retries are uncapped — the naive client the surge
    campaign's "undefended" mode measures; with a budget, a denied
    withdrawal surfaces the *original* error immediately (counted in
    ``budget_denied``), so accounting stays by true failure kind.
    """

    def __init__(self, inner: DbBinding, env, rng, retries: int,
                 backoff_s: float, budget: Optional[RetryBudget]) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.inner = inner
        self.env = env
        self._rng = rng
        self.retries = retries
        self.backoff_s = backoff_s
        self.budget = budget
        #: First attempts / extra attempts actually issued / retries the
        #: budget refused / operations that failed after all attempts.
        self.attempts = 0
        self.retried = 0
        self.budget_denied = 0
        self.exhausted = 0

    def _call(self, method, *args) -> Generator:
        self.attempts += 1
        if self.budget is not None:
            self.budget.record_request()
        for attempt in range(self.retries + 1):
            try:
                result = yield from method(*args)
            except ModelledFailure as exc:
                if isinstance(exc, DeadlineExceeded):
                    # The op's end-to-end budget is spent; retrying
                    # cannot help (the deadline covers all attempts).
                    self.exhausted += 1
                    raise
                if attempt == self.retries:
                    self.exhausted += 1
                    raise
                if self.budget is not None and not self.budget.try_retry():
                    self.budget_denied += 1
                    self.exhausted += 1
                    raise
                self.retried += 1
                yield self.env.timeout(backoff_delay(
                    self.backoff_s, attempt + 1, BACKOFF_CAP_S,
                    self._rng))
                continue
            return result

    def stats(self) -> dict:
        return {"attempts": self.attempts, "retried": self.retried,
                "budget_denied": self.budget_denied,
                "exhausted": self.exhausted}

    def write(self, key: str, value, size: int) -> Generator:
        return self._call(self.inner.write, key, value, size)

    def read(self, key: str, size: int) -> Generator:
        return self._call(self.inner.read, key, size)

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        return self._call(self.inner.scan, start_key, limit, record_bytes)
