"""Per-tenant token-bucket rate limiting at the client tier's front door.

A flash crowd is rarely uniform: the zipf-skewed user population means
a handful of tenants carry most of the surge.  Metering each tenant
with its own bucket converts "one hot tenant melts the store for
everyone" into "the hot tenant gets throttled, the rest keep their
latency" — the isolation argument behind every multi-tenant admission
controller.  Rejection is synchronous (:class:`RateLimited` before any
work is queued) so it costs the system nothing.
"""

from __future__ import annotations

from repro.clienttier.tokens import TokenBucket

__all__ = ["RateLimited", "TenantRateLimiter"]


class RateLimited(Exception):
    """The tenant's bucket was empty: request refused at admission."""


class TenantRateLimiter:
    """One :class:`~repro.clienttier.tokens.TokenBucket` per tenant.

    ``rate_per_tenant`` is each tenant's sustained admission rate
    (requests/s); ``burst`` how much a quiet tenant may save up.
    Buckets are created on first sight, full — a tenant's first burst
    is admitted, as a freshly configured limiter would.
    """

    def __init__(self, clock, rate_per_tenant: float,
                 burst: float) -> None:
        if rate_per_tenant <= 0:
            raise ValueError("rate_per_tenant must be positive")
        self._clock = clock
        self.rate_per_tenant = rate_per_tenant
        self.burst = burst
        self._buckets: dict[int, TokenBucket] = {}
        self.admitted = 0
        self.rejected = 0

    def _bucket(self, tenant: int) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(rate=self.rate_per_tenant, burst=self.burst,
                                 clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: int) -> None:
        """Admit or raise :class:`RateLimited`, charging one token."""
        if self._bucket(tenant).try_take(1.0):
            self.admitted += 1
            return
        self.rejected += 1
        raise RateLimited(f"tenant {tenant} over rate")

    def stats(self) -> dict:
        return {"admitted": self.admitted, "rejected": self.rejected,
                "tenants": len(self._buckets)}
