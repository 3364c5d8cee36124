"""The record a client tier takes: :class:`ClientTierConfig`.

It lives apart from :mod:`repro.clienttier.openloop` so that a cell's
config (:mod:`repro.core.config`) can carry it without compiling the
tier; only a session whose config sets ``arrivals`` imports the
open-loop client and the defenses it composes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ClientTierConfig"]


@dataclass(frozen=True)
class ClientTierConfig:
    """Resilient client-tier knobs (see :mod:`repro.clienttier`).

    The all-defaults instance is inert: no retries, no breaker, no rate
    limiter, no leveler, no cache — the raw driver behaviour every
    closed-loop sweep keeps.  Only consulted when a run goes through
    the open-loop client (``run_cell(open_loop=True)``: every measured
    run of a cell whose config sets ``arrivals``).  Retries and breaker
    act on any :class:`~repro.sim.kernel.ModelledFailure`.
    """

    #: Extra client-tier attempts per operation (0 = the tier's retry
    #: layer is off; the drivers' own internal retries still apply).
    retries: int = 0
    retry_backoff_s: float = 0.05
    #: Retry-budget earn ratio (Finagle-style): each first attempt earns
    #: this fraction of a retry token.  ``None`` = uncapped retries —
    #: the naive client whose amplification the surge campaign measures.
    retry_budget_ratio: Optional[float] = None
    #: Circuit breaker trip threshold (failure fraction in the sliding
    #: window).  ``None`` = no breaker; an open one cools down for
    #: :data:`~repro.clienttier.openloop.BREAKER_COOLDOWN_S`.
    breaker_failure_rate: Optional[float] = None
    #: Per-tenant admission rate (requests/s).  ``None`` = no limiter.
    rate_limit_per_tenant: Optional[float] = None
    rate_limit_burst: float = 10.0
    #: Fixed worker-pool size for queue-based load leveling.  ``None`` =
    #: spawn one in-flight operation per arrival (unbounded concurrency).
    leveling_workers: Optional[int] = None
    leveling_queue: int = 64
    #: Cache-aside read-cache TTL (the declared staleness budget the
    #: oracle prices).  ``None`` = no cache.
    cache_ttl_s: Optional[float] = None
    cache_capacity: int = 1024
    #: Override the driver's per-operation timeout (both engines) so an
    #: overloaded store fails fast enough for client-side defenses to
    #: react within a short campaign.  ``None`` = driver defaults.
    op_timeout_s: Optional[float] = None
