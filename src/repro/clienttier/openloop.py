"""Open-loop client: arrivals that do not wait, measured honestly.

Where :class:`~repro.ycsb.client.YcsbClient` is closed-loop (a worker
issues its next operation only after the previous one completes — load
falls whenever the store slows), this client draws arrival times from
an :class:`~repro.ycsb.arrivals.ArrivalProcess` and dispatches each
operation *at its arrival time* regardless of how many are already in
flight.  Offered load is therefore an input, and "goodput" (completions
per second) an output — the pair every overload study plots.

Latency is measured from the operation's **intended arrival**, not from
whenever a worker got around to dequeueing it.  Measuring from dequeue
is the coordinated-omission bug: queueing delay — the dominant cost
during overload — silently vanishes from the percentiles.  Here a
request that waited 2 s in the leveling queue and then served in 5 ms
reports 2.005 s.

The client composes the tier's defenses:

- per-tenant rate limiter — consulted at arrival; a refusal is recorded
  as a ``RateLimited`` error and costs the system nothing;
- load leveler — when present, operations run on its bounded worker
  pool (queue-full arrivals are recorded as ``LoadShed``); without it,
  every arrival spawns its own in-flight process (the undefended mode's
  unbounded concurrency);
- the binding stack (cache-aside → retries → breaker → driver), built
  by :func:`build_client_stack` from a
  :class:`~repro.core.config.ClientTierConfig`.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.clienttier.breaker import BreakerBinding, BreakerOpen, CircuitBreaker
from repro.clienttier.cache import CacheAsideBinding
from repro.clienttier.leveling import LoadLeveler
from repro.clienttier.ratelimit import RateLimited, TenantRateLimiter
from repro.clienttier.retry import RetryBinding, RetryBudget
from repro.sim.kernel import Environment, Event
from repro.ycsb.arrivals import ArrivalProcess, UserSessions
from repro.ycsb.client import OPERATION_ERRORS, RunResult, _execute
from repro.ycsb.db import DbBinding
from repro.ycsb.measurements import Measurements
from repro.ycsb.workload import OperationType, Workload

__all__ = ["CLIENT_TIER_ERRORS", "ClientTier", "OpenLoopClient",
           "build_client_stack"]

#: Client-side refusals, recorded under their own names next to the
#: store-side :data:`~repro.ycsb.client.OPERATION_ERRORS`.
CLIENT_TIER_ERRORS = (BreakerOpen,)


class ClientTier:
    """One run's assembled defense stack plus its accounting handles."""

    def __init__(self, binding: DbBinding,
                 breaker: Optional[CircuitBreaker] = None,
                 retry: Optional[RetryBinding] = None,
                 limiter: Optional[TenantRateLimiter] = None,
                 leveler: Optional[LoadLeveler] = None,
                 cache: Optional[CacheAsideBinding] = None) -> None:
        self.binding = binding
        self.breaker = breaker
        self.retry = retry
        self.limiter = limiter
        self.leveler = leveler
        self.cache = cache

    def stats(self) -> dict:
        """JSON-safe per-component accounting for run summaries."""
        out: dict = {}
        if self.breaker is not None:
            out["breaker"] = self.breaker.stats()
        if self.retry is not None:
            out["retry"] = self.retry.stats()
        if self.limiter is not None:
            out["ratelimit"] = self.limiter.stats()
        if self.leveler is not None:
            out["leveling"] = self.leveler.stats()
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out


def build_client_stack(inner: DbBinding, env: Environment, rngs,
                       tier_config) -> ClientTier:
    """Wrap ``inner`` per a :class:`~repro.core.config.ClientTierConfig`.

    Stack order, innermost out: driver → circuit breaker → retries →
    cache-aside.  The breaker sits closest to the store so every
    attempt (including each retry) lands in its failure window and an
    open circuit short-circuits retries too; the cache sits outermost
    so hits skip the whole pipeline.  The rate limiter and load leveler
    are not bindings — they act at dispatch and are handed to the
    :class:`OpenLoopClient` separately.
    """
    cfg = tier_config
    clock = lambda: env.now  # noqa: E731
    binding = inner
    breaker = retry = cache = limiter = leveler = None
    if cfg.breaker_failure_rate is not None:
        breaker = CircuitBreaker(
            clock, failure_rate=cfg.breaker_failure_rate,
            cooldown_s=cfg.breaker_cooldown_s)
        binding = BreakerBinding(binding, breaker,
                                 failure_errors=OPERATION_ERRORS)
    if cfg.retries > 0:
        budget = None
        if cfg.retry_budget_ratio is not None:
            budget = RetryBudget(clock, ratio=cfg.retry_budget_ratio)
        retry = RetryBinding(binding, env,
                             rngs.stream("clienttier.retry.backoff"),
                             retry_errors=OPERATION_ERRORS,
                             retries=cfg.retries,
                             backoff_s=cfg.retry_backoff_s,
                             budget=budget)
        binding = retry
    if cfg.cache_ttl_s is not None:
        cache = CacheAsideBinding(binding, env, ttl_s=cfg.cache_ttl_s,
                                  capacity=cfg.cache_capacity)
        binding = cache
    if cfg.rate_limit_per_tenant is not None:
        limiter = TenantRateLimiter(clock,
                                    rate_per_tenant=cfg.rate_limit_per_tenant,
                                    burst=cfg.rate_limit_burst)
    if cfg.leveling_workers is not None:
        leveler = LoadLeveler(env, workers=cfg.leveling_workers,
                              max_queue=cfg.leveling_queue)
    return ClientTier(binding, breaker=breaker, retry=retry, limiter=limiter,
                      leveler=leveler, cache=cache)


class OpenLoopClient:
    """Drives one open-loop arrival stream against a binding stack.

    ``db`` is the (possibly recorder-wrapped) top of the binding stack;
    ``tier`` supplies the limiter/leveler/cache consulted at dispatch.
    ``run`` is a simulation process returning a
    :class:`~repro.ycsb.client.RunResult` whose ``offered`` field
    distinguishes it from a closed-loop run.
    """

    def __init__(self, env: Environment, db: DbBinding, workload: Workload,
                 arrivals: ArrivalProcess,
                 sessions: Optional[UserSessions] = None,
                 tier: Optional[ClientTier] = None) -> None:
        self.env = env
        self.db = db
        self.workload = workload
        self.arrivals = arrivals
        self.sessions = sessions
        self.tier = tier
        self._errors = OPERATION_ERRORS + CLIENT_TIER_ERRORS

    def run(self, max_arrivals: int,
            offered_rate: Optional[float] = None,
            measurements: Optional[Measurements] = None) -> Generator:
        """Dispatch ``max_arrivals`` arrivals, then drain (a sim process).

        ``offered_rate`` is purely descriptive (the steady arrival rate,
        reported as the run's target); the actual schedule comes from
        the arrival process.  ``measurements`` lets the caller share the
        live sample store with a mid-run observer (the elasticity
        campaign's autoscaler).
        """
        env = self.env
        leveler = self.tier.leveler if self.tier is not None else None
        limiter = self.tier.limiter if self.tier is not None else None
        cache = self.tier.cache if self.tier is not None else None
        if measurements is None:
            measurements = Measurements()
        epoch = env.now
        measurements.started_at = epoch
        state = {"not_found": 0, "outstanding": 0, "closed": False,
                 "drained": Event(env)}
        times = self.arrivals.times()
        issued = 0
        while issued < max_arrivals:
            offset = next(times)
            at = epoch + offset
            if at > env.now:
                yield env.timeout(at - env.now)
            issued += 1
            op = self.workload.next_operation()
            measurements.record_arrival(op.value, at)
            tenant = None
            if self.sessions is not None:
                tenant = self.sessions.tenant_of(self.sessions.next_user())
            read_key = None
            if cache is not None and op is OperationType.READ:
                # Edge serving: a read the cache can answer fresh skips
                # admission control entirely — the backend never sees
                # it, so it must not spend a rate-limit token or a
                # leveling-queue slot.  The serve itself still runs
                # through the binding stack (recorder included), so the
                # oracle prices the possibly-stale observation.
                read_key = self.workload.next_read_key()
                if cache.fresh(read_key):
                    state["outstanding"] += 1
                    env.process(
                        self._op_thunk(op, at, measurements, state,
                                       read_key=read_key)(),
                        name=f"arrival-{issued}")
                    continue
            if limiter is not None and tenant is not None:
                try:
                    limiter.admit(tenant)
                except RateLimited:
                    measurements.record_error(op.value, kind="RateLimited",
                                              at=at)
                    continue
            thunk = self._op_thunk(op, at, measurements, state,
                                   read_key=read_key)
            if leveler is not None:
                if not leveler.try_submit(thunk):
                    measurements.record_error(op.value, kind="LoadShed",
                                              at=at)
            else:
                state["outstanding"] += 1
                env.process(thunk(), name=f"arrival-{issued}")
        # Intake closed: wait for everything already admitted.
        state["closed"] = True
        if leveler is not None:
            yield from leveler.drain()
        elif state["outstanding"] > 0:
            yield state["drained"]
        measurements.finished_at = env.now
        return RunResult.of(self.workload, measurements, state["not_found"],
                            offered_rate, offered=measurements.offered_total)

    def _op_thunk(self, op: OperationType, arrived_at: float,
                  measurements: Measurements, state: dict,
                  read_key: Optional[str] = None):
        """One operation as a zero-argument generator factory.

        Latency is ``completion - arrived_at``: when the thunk sat in
        the leveling queue first, that wait is part of the number (the
        coordinated-omission fix).  All errors are absorbed here — the
        leveler's shared workers must never die on one bad request.
        """
        env = self.env

        def thunk() -> Generator:
            try:
                found = yield from _execute(self.db, self.workload, op,
                                            read_key)
            except self._errors as exc:
                measurements.record_error(op.value, kind=type(exc).__name__,
                                          at=env.now)
            else:
                if not found:
                    state["not_found"] += 1
                measurements.record(op.value, env.now, env.now - arrived_at)
            finally:
                if state["outstanding"]:
                    state["outstanding"] -= 1
                    if state["closed"] and state["outstanding"] == 0:
                        state["drained"].succeed()

        return thunk
