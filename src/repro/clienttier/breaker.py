"""Circuit breaker: fail fast instead of piling onto a sick store.

Classic closed / open / half-open state machine over a sliding
failure-rate window (the Nygard "Release It!" pattern, as shipped in
Hystrix and resilience4j).  During an overload every queued request is
a liability — it holds client concurrency *and* server queue slots for
a response that will probably time out.  The breaker converts those
slow failures into immediate :class:`BreakerOpen` errors, giving the
store a cooldown's worth of reduced load, then probes with a bounded
number of trial requests before re-admitting traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.sim.kernel import ModelledFailure
from repro.ycsb.db import DbBinding

__all__ = ["BreakerBinding", "BreakerOpen", "CircuitBreaker"]

#: Seconds of outcomes the closed breaker's failure rate is taken over.
WINDOW_S = 1.0
#: Outcomes the window must hold before the breaker may trip.
MIN_VOLUME = 10
#: Concurrent trial requests half-open admits; as many successes close.
HALF_OPEN_PROBES = 3


class BreakerOpen(Exception):
    """The circuit is open: the request was failed fast, never sent."""


class CircuitBreaker:
    """Failure-rate breaker with a time-sliding observation window.

    - **closed** — requests flow; outcomes land in a window of the last
      :data:`WINDOW_S` seconds.  When the window holds at least
      :data:`MIN_VOLUME` outcomes and the failure fraction reaches
      ``failure_rate``, the breaker trips.
    - **open** — every request raises :class:`BreakerOpen` for
      ``cooldown_s`` seconds.
    - **half-open** — up to :data:`HALF_OPEN_PROBES` concurrent trial
      requests pass through; the rest still fail fast.  One probe
      failure re-opens (fresh cooldown); :data:`HALF_OPEN_PROBES` probe
      successes close and clear the window.

    The clock is the simulation's (``clock=lambda: env.now``), so the
    breaker is as deterministic as everything else in the kernel.
    """

    def __init__(self, clock, failure_rate: float,
                 cooldown_s: float) -> None:
        if not 0.0 < failure_rate <= 1.0:
            raise ValueError("failure_rate must be in (0, 1]")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self._clock = clock
        self.failure_rate = failure_rate
        self.cooldown_s = cooldown_s
        self.state = "closed"
        #: (time, ok) outcomes inside the sliding window (closed state).
        self._window: deque[tuple[float, bool]] = deque()
        self._failures_in_window = 0
        self._open_until = 0.0
        self._probes_inflight = 0
        self._probe_successes = 0
        # Counters for stats breakdowns.
        self.opens = 0
        self.fast_fails = 0
        self.probes = 0

    def _trim(self, now: float) -> None:
        horizon = now - WINDOW_S
        window = self._window
        while window and window[0][0] <= horizon:
            _, ok = window.popleft()
            if not ok:
                self._failures_in_window -= 1

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opens += 1
        self._open_until = now + self.cooldown_s
        self._window.clear()
        self._failures_in_window = 0

    def before(self) -> None:
        """Admission check; raises :class:`BreakerOpen` to fail fast."""
        now = self._clock()
        if self.state == "open":
            if now < self._open_until:
                self.fast_fails += 1
                raise BreakerOpen("circuit open")
            self.state = "half_open"
            self._probes_inflight = 0
            self._probe_successes = 0
        if self.state == "half_open":
            if self._probes_inflight >= HALF_OPEN_PROBES:
                self.fast_fails += 1
                raise BreakerOpen("circuit half-open, probes saturated")
            self._probes_inflight += 1
            self.probes += 1

    def record_success(self) -> None:
        now = self._clock()
        if self.state == "half_open":
            # Only probes execute in half-open, so any completion here
            # is a probe's.
            self._probes_inflight -= 1
            self._probe_successes += 1
            if self._probe_successes >= HALF_OPEN_PROBES:
                self.state = "closed"
            return
        if self.state == "closed":
            self._window.append((now, True))
            self._trim(now)
        # A probe completing after another probe already re-opened the
        # circuit lands in "open" and is deliberately ignored.

    def record_failure(self) -> None:
        now = self._clock()
        if self.state == "half_open":
            self._probes_inflight -= 1
            self._trip(now)
            return
        if self.state == "closed":
            self._window.append((now, False))
            self._failures_in_window += 1
            self._trim(now)
            if (len(self._window) >= MIN_VOLUME
                    and self._failures_in_window
                    >= self.failure_rate * len(self._window)):
                self._trip(now)

    def stats(self) -> dict:
        return {"state": self.state, "opens": self.opens,
                "fast_fails": self.fast_fails, "probes": self.probes}


class BreakerBinding:
    """A :class:`~repro.ycsb.db.DbBinding` guarded by one breaker.

    A :class:`~repro.sim.kernel.ModelledFailure` (a timeout, a shed, a
    dead node) counts as a store failure; anything else — including
    :class:`BreakerOpen` itself — passes through without touching the
    window.
    """

    def __init__(self, inner: DbBinding, breaker: CircuitBreaker) -> None:
        self.inner = inner
        self.breaker = breaker

    def _guard(self, method, *args) -> Generator:
        self.breaker.before()
        try:
            result = yield from method(*args)
        except ModelledFailure:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        return result

    def write(self, key: str, value, size: int) -> Generator:
        return self._guard(self.inner.write, key, value, size)

    def read(self, key: str, size: int) -> Generator:
        return self._guard(self.inner.read, key, size)

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        return self._guard(self.inner.scan, start_key, limit, record_bytes)
