"""Unit tests for the resilient client tier, plus its replay pins.

The middleware pieces (token bucket, breaker, retry budget, leveler,
rate limiter, cache-aside) are tested in isolation against fake clocks
and scripted bindings; the integration pins at the bottom assert the
surge campaign's headline determinism claim — an open-loop cell replays
bit-identically in-process and across ``--jobs`` worker processes.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clienttier.breaker import (
    HALF_OPEN_PROBES, MIN_VOLUME, WINDOW_S, BreakerBinding, BreakerOpen,
    CircuitBreaker)
from repro.clienttier.cache import CacheAsideBinding
from repro.clienttier.leveling import LoadLeveler
from repro.clienttier.openloop import ClientTier, OpenLoopClient
from repro.clienttier.ratelimit import RateLimited, TenantRateLimiter
from repro.clienttier.retry import (
    BURST, MIN_RETRIES_PER_S, RetryBinding, RetryBudget)
from repro.clienttier.tokens import TokenBucket
from repro.cluster.topology import DeadlineExceeded, RpcTimeout
from repro.sim.kernel import Process
from repro.sim.rng import RngRegistry
from repro.ycsb.workload import Workload, WorkloadSpec

pytestmark = pytest.mark.hashseed


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def level(bucket: TokenBucket) -> float:
    """The bucket's level, refilled to its clock's now."""
    bucket._refill()
    return bucket._tokens


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert level(bucket) == 3.0
        assert bucket.try_take() and bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_refills_at_rate_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=5.0, clock=clock)
        for _ in range(5):
            bucket.try_take()
        clock.advance(1.0)
        assert level(bucket) == pytest.approx(2.0)
        clock.advance(100.0)
        assert level(bucket) == 5.0

    def test_deposit_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=2.0, clock=clock)
        bucket.try_take()
        bucket.deposit(10.0)
        assert level(bucket) == 2.0

    def test_fractional_withdrawal(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert bucket.try_take(0.5) and bucket.try_take(0.5)
        assert not bucket.try_take(0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0, clock=FakeClock())
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0, clock=FakeClock())

    @given(ops=st.lists(st.tuples(st.sampled_from(["take", "deposit",
                                                   "advance"]),
                                  st.floats(0.01, 5.0)),
                        max_size=60),
           rate=st.floats(0.0, 10.0), burst=st.floats(0.5, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_level_invariants_and_determinism(self, ops, rate, burst):
        """The level never leaves [0, burst], and an identical op
        sequence replays to identical withdrawal outcomes and an
        identical final state (the bucket is wall-clock-free)."""
        def run():
            clock = FakeClock()
            bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
            takes = []
            for op, amount in ops:
                if op == "take":
                    takes.append(bucket.try_take(amount))
                elif op == "deposit":
                    bucket.deposit(amount)
                else:
                    clock.advance(amount)
                assert 0.0 <= level(bucket) <= burst
            return level(bucket), takes

        assert run() == run()


class TestCircuitBreaker:
    """Against the module's constants: a window of ``WINDOW_S`` seconds
    that must hold ``MIN_VOLUME`` outcomes, ``HALF_OPEN_PROBES`` trial
    requests; failure rate 0.5 and a 1 s cooldown."""

    def _breaker(self, clock):
        return CircuitBreaker(clock, failure_rate=0.5, cooldown_s=1.0)

    def _trip(self, breaker):
        for _ in range(MIN_VOLUME):
            breaker.record_failure()
        assert breaker.state == "open"

    def test_stays_closed_under_min_volume(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        for _ in range(MIN_VOLUME - 1):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.before()  # does not raise

    def test_trips_at_failure_rate(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        half = MIN_VOLUME // 2
        for _ in range(MIN_VOLUME - half):
            breaker.record_success()
        for _ in range(half - 1):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()  # half failures >= 0.5 at full volume
        assert breaker.state == "open" and breaker.opens == 1
        with pytest.raises(BreakerOpen):
            breaker.before()
        assert breaker.fast_fails == 1

    def test_old_outcomes_age_out_of_window(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(2 * WINDOW_S)  # both failures age out
        half = MIN_VOLUME // 2
        for _ in range(MIN_VOLUME - half):
            breaker.record_success()
        for _ in range(half - 1):
            breaker.record_failure()
        # With the stale failures the window would already hold enough
        # volume at a failure rate of 0.5 and have tripped.
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 1

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        self._trip(breaker)
        clock.advance(1.5)  # cooldown elapsed
        breaker.before()
        assert breaker.state == "half_open"
        for _ in range(HALF_OPEN_PROBES - 1):
            breaker.before()  # further concurrent probes allowed
        with pytest.raises(BreakerOpen):
            breaker.before()  # probes saturated
        for _ in range(HALF_OPEN_PROBES - 1):
            breaker.record_success()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        self._trip(breaker)
        clock.advance(1.5)
        breaker.before()
        breaker.record_failure()
        assert breaker.state == "open" and breaker.opens == 2
        with pytest.raises(BreakerOpen):
            breaker.before()  # fresh cooldown in force

    def test_invalid_parameters_rejected(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_rate=0.0, cooldown_s=1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_rate=0.5, cooldown_s=0.0)


class TestRetryBudget:
    """Against the module's constants: the bucket starts full at
    ``BURST`` and trickles ``MIN_RETRIES_PER_S``."""

    def test_burst_then_earned_retries(self):
        clock = FakeClock()  # never advanced: no trickle
        budget = RetryBudget(clock, ratio=0.2)
        for _ in range(int(BURST)):
            assert budget.try_retry()
        assert not budget.try_retry()
        for _ in range(5):  # 5 first attempts earn 1 retry at ratio 0.2
            budget.record_request()
        assert budget.try_retry()
        assert not budget.try_retry()

    def test_trickle_refills(self):
        clock = FakeClock()
        budget = RetryBudget(clock, ratio=0.0)
        for _ in range(int(BURST)):
            assert budget.try_retry()
        assert not budget.try_retry()
        clock.advance(1.0 / MIN_RETRIES_PER_S)
        assert budget.try_retry()
        assert not budget.try_retry()

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(FakeClock(), ratio=-0.1)


class FlakyBinding:
    """Scripted binding: fails the first ``fail_times`` calls."""

    def __init__(self, env, fail_times, error=None):
        self.env = env
        self.fail_times = fail_times
        self.error = error or RpcTimeout("scripted timeout")
        self.calls = 0

    def read(self, key, size):
        self.calls += 1
        yield self.env.timeout(0.01)
        if self.calls <= self.fail_times:
            raise self.error
        return ("value", self.env.now)

    insert = update = read

    def scan(self, start_key, limit, record_bytes):
        yield self.env.timeout(0.01)
        return []


def _drive(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


def _retry_binding(env, inner, retries=3, budget=None):
    from repro.sim.rng import RngRegistry
    return RetryBinding(inner, env, RngRegistry(1).stream("retry"),
                        retries=retries, backoff_s=0.01, budget=budget)


class TestRetryBinding:
    def test_retries_until_success(self, env):
        inner = FlakyBinding(env, fail_times=2)
        binding = _retry_binding(env, inner)
        value = _drive(env, binding.read("k", 100))
        assert value[0] == "value"
        assert inner.calls == 3
        assert binding.retried == 2 and binding.exhausted == 0

    def test_exhausts_after_cap(self, env):
        inner = FlakyBinding(env, fail_times=10)
        binding = _retry_binding(env, inner, retries=2)
        with pytest.raises(RpcTimeout):
            _drive(env, binding.read("k", 100))
        assert inner.calls == 3  # first attempt + 2 retries
        assert binding.exhausted == 1

    def test_deadline_exceeded_never_retried(self, env):
        """A spent end-to-end deadline must not respawn as retries —
        the deadline already covered every attempt the op was owed."""
        inner = FlakyBinding(env, fail_times=10,
                             error=DeadlineExceeded("budget spent"))
        binding = _retry_binding(env, inner)
        with pytest.raises(DeadlineExceeded):
            _drive(env, binding.read("k", 100))
        assert inner.calls == 1
        assert binding.retried == 0 and binding.exhausted == 1

    def test_budget_denial_surfaces_original_error(self, env):
        budget = RetryBudget(lambda: env.now, ratio=0.0)
        for _ in range(int(BURST) - 1):  # one token left
            assert budget.try_retry()
        inner = FlakyBinding(env, fail_times=10)
        binding = _retry_binding(env, inner, budget=budget)
        with pytest.raises(RpcTimeout):
            _drive(env, binding.read("k", 100))
        # The last token allowed one retry; the trickle had refilled
        # only a few hundredths of one by the second withdrawal, which
        # was denied: the op failed with its own error, not a budget's.
        assert inner.calls == 2
        assert binding.retried == 1 and binding.budget_denied == 1


class TestLoadLeveler:
    def test_sheds_beyond_queue_bound(self, env):
        leveler = LoadLeveler(env, workers=1, max_queue=2)

        def thunk():
            yield env.timeout(0.1)

        assert leveler.try_submit(thunk)
        assert leveler.try_submit(thunk)
        assert not leveler.try_submit(thunk)
        assert leveler.shed == 1 and leveler.submitted == 2
        assert leveler.peak_depth == 2

    def test_drain_completes_backlog(self, env):
        leveler = LoadLeveler(env, workers=2, max_queue=8)
        done = []

        def thunk():
            yield env.timeout(0.05)
            done.append(env.now)

        for _ in range(5):
            assert leveler.try_submit(thunk)
        _drive(env, leveler.drain())
        assert len(done) == 5 and leveler.completed == 5
        with pytest.raises(RuntimeError):
            leveler.try_submit(thunk)

    def test_concurrency_bounded_by_workers(self, env):
        leveler = LoadLeveler(env, workers=2, max_queue=16)
        running = [0]
        peak = [0]

        def thunk():
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            yield env.timeout(0.1)
            running[0] -= 1

        for _ in range(6):
            leveler.try_submit(thunk)
        _drive(env, leveler.drain())
        assert peak[0] == 2 and leveler.completed == 6

    def test_invalid_parameters_rejected(self, env):
        with pytest.raises(ValueError):
            LoadLeveler(env, workers=0, max_queue=64)
        with pytest.raises(ValueError):
            LoadLeveler(env, workers=1, max_queue=0)


class TestTenantRateLimiter:
    def test_burst_admitted_then_rejected(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(clock, rate_per_tenant=1.0, burst=2.0)
        limiter.admit(0)
        limiter.admit(0)
        with pytest.raises(RateLimited):
            limiter.admit(0)
        assert limiter.admitted == 2 and limiter.rejected == 1

    def test_tenants_isolated(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(clock, rate_per_tenant=1.0, burst=1.0)
        limiter.admit(0)
        with pytest.raises(RateLimited):
            limiter.admit(0)
        limiter.admit(1)  # tenant 1's bucket untouched by tenant 0
        assert limiter.stats()["tenants"] == 2

    def test_refill_readmits(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(clock, rate_per_tenant=2.0, burst=1.0)
        limiter.admit(0)
        clock.advance(0.5)
        limiter.admit(0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            TenantRateLimiter(FakeClock(), rate_per_tenant=0.0, burst=10.0)


class CountingBinding:
    """Scripted store: counts reads, returns (value, write_time); every
    verb takes ``delay_s``."""

    def __init__(self, env, delay_s=0.01):
        self.env = env
        self.delay_s = delay_s
        self.reads = 0
        self.missing = set()

    def read(self, key, size):
        self.reads += 1
        yield self.env.timeout(self.delay_s)
        if key in self.missing:
            return None
        return (f"v:{key}", 0.0)

    def write(self, key, value, size):
        yield self.env.timeout(self.delay_s)
        return None

    def scan(self, start_key, limit, record_bytes):
        yield self.env.timeout(self.delay_s)
        return []


class TestCacheAside:
    def test_hit_skips_store_and_simulated_time(self, env):
        inner = CountingBinding(env)
        cache = CacheAsideBinding(inner, env, ttl_s=1.0, capacity=8)

        def scenario():
            yield from cache.read("a", 100)
            before = env.now
            value = yield from cache.read("a", 100)
            assert env.now == before  # a hit costs no simulated time
            return value

        value = _drive(env, scenario())
        assert value == ("v:a", 0.0)
        assert inner.reads == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_ttl_expiry_refetches(self, env):
        inner = CountingBinding(env)
        cache = CacheAsideBinding(inner, env, ttl_s=0.5, capacity=8)

        def scenario():
            yield from cache.read("a", 100)
            yield env.timeout(1.0)
            yield from cache.read("a", 100)

        _drive(env, scenario())
        assert inner.reads == 2 and cache.hits == 0

    def test_write_invalidates_after_completion(self, env):
        inner = CountingBinding(env)
        cache = CacheAsideBinding(inner, env, ttl_s=10.0, capacity=8)

        def scenario():
            yield from cache.read("a", 100)
            yield from cache.write("a", "new", 100)
            yield from cache.read("a", 100)  # must go to the store

        _drive(env, scenario())
        assert inner.reads == 2 and cache.invalidations == 1

    def test_lru_eviction_at_capacity(self, env):
        inner = CountingBinding(env)
        cache = CacheAsideBinding(inner, env, ttl_s=10.0, capacity=2)

        def scenario():
            for key in ("a", "b", "c"):  # c evicts a
                yield from cache.read(key, 100)
            yield from cache.read("b", 100)  # still cached
            yield from cache.read("a", 100)  # miss: was evicted
            # re-caching "a" evicts the LRU entry ("c") in turn

        _drive(env, scenario())
        assert cache.evictions == 2
        assert inner.reads == 4 and cache.hits == 1

    def test_fresh_is_pure(self, env):
        inner = CountingBinding(env)
        cache = CacheAsideBinding(inner, env, ttl_s=0.5, capacity=8)

        def scenario():
            assert not cache.fresh("a")
            yield from cache.read("a", 100)
            hits, misses = cache.hits, cache.misses
            assert cache.fresh("a")
            assert (cache.hits, cache.misses) == (hits, misses)
            yield env.timeout(1.0)
            assert not cache.fresh("a")

        _drive(env, scenario())

    def test_not_found_never_cached(self, env):
        inner = CountingBinding(env)
        inner.missing.add("gone")
        cache = CacheAsideBinding(inner, env, ttl_s=10.0, capacity=8)

        def scenario():
            yield from cache.read("gone", 100)
            yield from cache.read("gone", 100)

        _drive(env, scenario())
        assert inner.reads == 2 and cache.hits == 0


class AlwaysFresh:
    """A cache tier that can answer every read at the edge."""

    def fresh(self, key):
        return True


class EvenArrivals:
    """One arrival every ``gap_s`` seconds."""

    def __init__(self, gap_s):
        self.gap_s = gap_s

    def times(self):
        n = 0
        while True:
            n += 1
            yield n * self.gap_s


def _open_loop(env, db, tier=None, read_proportion=1.0):
    spec = WorkloadSpec(name="probe", read_proportion=read_proportion,
                        update_proportion=1.0 - read_proportion)
    workload = Workload(spec, 100, RngRegistry(1).stream("workload"))
    return OpenLoopClient(env, db, workload, EvenArrivals(0.01),
                          sessions=None, tier=tier)


class TestOpenLoopClient:
    @pytest.mark.parametrize("read_proportion", [1.0, 0.5])
    def test_drain_waits_for_arrivals_served_beside_the_leveler(
            self, env, read_proportion):
        """A read the cache answers runs on its own process, not on a
        leveler worker; the run still counts it before it returns."""
        db = CountingBinding(env, 1.0)
        tier = ClientTier(db, breaker=None, retry=None, limiter=None,
                          leveler=LoadLeveler(env, workers=2, max_queue=10),
                          cache=AlwaysFresh())
        client = _open_loop(env, db, tier, read_proportion)
        result = _drive(env, client.run(5))
        assert result.operations == 5 and result.offered == 5
        assert env.now >= 1.05

    def test_an_arrival_in_flight_is_one_generator_without_a_closure(
            self, env):
        n = 40
        client = _open_loop(env, CountingBinding(env, 1000.0))
        env.process(client.run(n))
        env.run(until=1.0)
        gc.collect()
        arrivals = [obj._generator for obj in gc.get_objects()
                    if isinstance(obj, Process) and obj.env is env
                    and obj.name.startswith("arrival-")]
        assert len(arrivals) == n
        assert all(gen.gi_frame is not None for gen in arrivals)
        assert [gen.gi_code.co_freevars for gen in arrivals] == [()] * n


class TestBreakerBinding:
    def test_failures_trip_then_fail_fast(self, env):
        breaker = CircuitBreaker(lambda: env.now, failure_rate=0.5,
                                 cooldown_s=1.0)
        # Each call takes 0.01 s, so all MIN_VOLUME land in one window.
        inner = FlakyBinding(env, fail_times=MIN_VOLUME + 5)
        binding = BreakerBinding(inner, breaker)

        def scenario():
            for _ in range(MIN_VOLUME):
                try:
                    yield from binding.read("k", 100)
                except RpcTimeout:
                    pass
            try:
                yield from binding.read("k", 100)
            except BreakerOpen:
                return "fast-failed"
            return "sent"

        assert _drive(env, scenario()) == "fast-failed"
        assert breaker.state == "open"
        # The request after the tripping one never reached the store.
        assert inner.calls == MIN_VOLUME


# -- Integration pins: the open-loop cell is deterministic -------------------

def _tiny_scale():
    from dataclasses import replace
    from repro.core.sweep import CAMPAIGNS
    full = CAMPAIGNS["surge"].full
    # The per-tenant rate limit stays at full's 450/s: six times this
    # scale's fair share (300/s over 4 tenants) as well.
    return replace(
        full, record_count=400, n_nodes=5,
        arrivals=replace(full.arrivals, rate=300.0, max_arrivals=1_500,
                         n_users=10_000, n_tenants=4, spike_at_s=1.0,
                         spike_duration_s=1.5),
        clienttier=replace(full.clienttier, leveling_workers=16,
                           leveling_queue=64))


def _traced_surge_run():
    """One checked open-loop flash-crowd cell, traced."""
    from repro.core.sweep import campaign_cells
    from repro.cassandra.consistency import ConsistencyLevel
    from tests.conftest import traced_run

    cell = campaign_cells("surge", "cassandra", _tiny_scale(),
                          modes=("full",), scenarios=("flash_crowd",))[0]
    return traced_run(cell.config, read_cl=ConsistencyLevel.ONE,
                      write_cl=ConsistencyLevel.ONE,
                      check_consistency=True, open_loop=True)


class TestSurgeReplayPin:
    def test_open_loop_cell_replays_bit_identically(self):
        first = _traced_surge_run()
        second = _traced_surge_run()
        assert first[1] > 0
        assert first == second

    def test_surge_cells_jobs_match_serial(self):
        """`repro-bench surge --jobs N` must be byte-identical to the
        serial run: arrivals, sessions, and every middleware decision
        derive from the cell's own seeded RNG registry."""
        from repro.core.runner import CellRunner
        from repro.core.sweep import campaign_cells

        cells = campaign_cells("surge", "cassandra", _tiny_scale(),
                               modes=("undefended", "full"),
                               scenarios=("flash_crowd",))
        serial = CellRunner(jobs=1, cache=False).run(cells)
        parallel = CellRunner(jobs=2, cache=False).run(cells)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
