"""Deterministic token bucket, the shared currency of the client tier.

Both the per-tenant rate limiter and the retry budget are token
buckets; the only difference is what deposits tokens (wall-clock refill
vs. completed first attempts).  The bucket is continuous (fractional
tokens) and lazy: the level is only brought forward when consulted, so
it costs no kernel events of its own.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["TokenBucket"]


class TokenBucket:
    """A capped reservoir of permission.

    ``rate`` tokens accrue per second up to ``burst``; :meth:`try_take`
    withdraws atomically (in simulation terms: within one event) and
    never blocks — admission control wants an immediate yes/no, not a
    queue.  ``clock`` is a zero-argument callable returning the current
    simulated time (``lambda: env.now``), which keeps the bucket
    deterministic and wall-clock-free.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float]) -> None:
        if rate < 0 or burst <= 0:
            raise ValueError("rate must be >= 0 and burst > 0")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        if now > self._updated:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._updated) * self.rate)
            self._updated = now

    def try_take(self, n: float = 1.0) -> bool:
        """Withdraw ``n`` tokens if available; False means denied."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def deposit(self, n: float) -> None:
        """Add ``n`` tokens (capped at ``burst``).

        The retry budget earns this way: each *first* attempt deposits a
        fraction of a token, so the sustainable retry rate is a fixed
        percentage of the request rate rather than a constant.
        """
        self._refill()
        self._tokens = min(self.burst, self._tokens + n)
