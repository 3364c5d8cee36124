"""Resilient client tier: the production patterns between the workload
and the database bindings.

Real serving stacks never talk to the store raw.  This package models
the defenses that decide whether an open-loop flash crowd is survived
or amplified, each composable around any
:class:`~repro.ycsb.db.DbBinding`:

- :class:`~repro.clienttier.breaker.CircuitBreaker` /
  :class:`~repro.clienttier.breaker.BreakerBinding` — closed/open/
  half-open failure-rate breaker that fails fast instead of queueing
  onto a struggling store;
- :class:`~repro.clienttier.retry.RetryBinding` — exponential-backoff
  retries, optionally capped by a
  :class:`~repro.clienttier.retry.RetryBudget` token bucket so retries
  can never multiply offered load unboundedly;
- :class:`~repro.clienttier.ratelimit.TenantRateLimiter` — per-tenant
  token-bucket admission control;
- :class:`~repro.clienttier.leveling.LoadLeveler` — a bounded queue
  feeding a fixed worker pool, with explicit shed accounting;
- :class:`~repro.clienttier.cache.CacheAsideBinding` — TTL'd
  cache-aside reads whose staleness cost the consistency oracle can
  measure;
- :class:`~repro.clienttier.openloop.OpenLoopClient` — drives an
  open-loop arrival stream (:mod:`repro.ycsb.arrivals`) through the
  stack, measuring latency from *intended arrival* so queueing delay is
  charged instead of hidden (the coordinated-omission fix).
"""
