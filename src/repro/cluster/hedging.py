"""Client retry delay policies: speculative retries (hedged requests)
and exponential backoff.

Cassandra 2.0.2 introduced *rapid read protection* (``speculative_retry``
per table): when the primary replica has not answered after a delay, the
coordinator duplicates the read to the next-fastest replica and takes
whichever response lands first.  The delay is either fixed ("50ms") or a
percentile of the table's recent read latency ("p99").

:class:`HedgePolicy` models both forms and is shared by the Cassandra
coordinator and the HBase client: callers feed completed-request
latencies into :meth:`observe` and ask :meth:`delay` when to fire the
hedge; :meth:`race` is the hedged wait itself, written once for both.
Percentile policies warm up — before :data:`MIN_SAMPLES`
observations they return ``None`` (no hedging), matching how a fresh
table has no latency history to speculate from.

:func:`backoff_delay` is the jittered exponential backoff between two
attempts, shared by the HBase client's failover retries and the client
tier's :class:`~repro.clienttier.retry.RetryBinding`; it lives here so
that the tier compiles no engine.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.kernel import AnyOf, Environment, Event, Timeout
from repro.ycsb.measurements import percentile

__all__ = ["HedgePolicy", "MIN_SAMPLES", "backoff_delay", "parse_hedge_spec"]

#: Latencies a percentile policy observes before it hedges at all.
MIN_SAMPLES = 16
#: How many recent latencies the percentile form remembers.
WINDOW = 256


def parse_hedge_spec(spec: str) -> tuple[str, float]:
    """Parse a speculative-retry spec string.

    Accepted forms (case-insensitive):

    - ``"50ms"`` — fixed delay in milliseconds → ``("fixed", 0.05)``
    - ``"p99"`` — latency percentile in (0, 100) →
      ``("percentile", 0.99)``
    """
    text = spec.strip().lower()
    try:
        if text.endswith("ms"):
            return ("fixed", float(text[:-2]) / 1000.0)
        if text.startswith("p") and 0 < float(text[1:]) < 100:
            return ("percentile", float(text[1:]) / 100.0)
    except ValueError:
        pass
    raise ValueError(
        f"unknown speculative-retry spec {spec!r}; use 'NNms' (a fixed "
        f"delay, e.g. '50ms') or 'pNN' (a latency percentile in (0, 100), "
        f"e.g. 'p99')")


class HedgePolicy:
    """When to duplicate a straggling request to another server.

    ``spec`` is ``"NNms"`` (fixed) or ``"pNN"`` (a percentile of the
    last :data:`WINDOW` latencies).
    """

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.kind, self.value = parse_hedge_spec(spec)
        self._latencies: list[float] = []
        self._next = 0  # ring-buffer cursor once the window is full

    def observe(self, latency_s: float) -> None:
        """Record one completed request's latency (percentile history)."""
        if self.kind != "percentile":
            return
        if len(self._latencies) < WINDOW:
            self._latencies.append(latency_s)
        else:
            self._latencies[self._next] = latency_s
            self._next = (self._next + 1) % WINDOW

    def delay(self) -> Optional[float]:
        """Seconds to wait before hedging; ``None`` = do not hedge yet."""
        if self.kind == "fixed":
            return self.value
        if len(self._latencies) < MIN_SAMPLES:
            return None
        return percentile(sorted(self._latencies), self.value)

    def race(self, env: Environment, primary: Event,
             launch_spare: Optional[Callable[[], Generator]]) -> Generator:
        """Wait for ``primary``, duplicating it when it straggles
        (``yield from`` this); returns ``(value, spare_won)``.

        Once :meth:`delay` passes without a successful ``primary`` — or
        as soon as it has failed — ``launch_spare()`` sends the duplicate
        (a generator: the HBase client re-locates the region through the
        HMaster first) and the first contender to complete with a
        non-exception value wins; a modelled failure (a shed, a region
        that moved) is such a value and never raises past the race.
        Nothing cancels the loser: it goes on to its end and settles
        unobserved, as any abandoned request does — unless it fails
        outright (a bug in its handler), which raises out of the run
        (:func:`_raise_failure`).  When both fail the value is the
        primary's exception.  No delay yet (a percentile policy warming
        up) or no ``launch_spare`` (no spare replica) means a plain
        wait.  Every success feeds the latency history.
        """
        start = env._now
        delay = self.delay()
        if delay is None or launch_spare is None:
            value = yield primary
            if not isinstance(value, Exception):
                self.observe(env._now - start)
            return value, False
        yield AnyOf(env, [primary, Timeout(env, delay)])
        if primary.callbacks is None \
                and not isinstance(primary._value, Exception):
            self.observe(env._now - start)
            return primary._value, False
        spare = yield from launch_spare()
        contenders = (primary, spare)
        while True:
            pending = [c for c in contenders if c.callbacks is not None]
            if len(pending) == 2:
                yield AnyOf(env, pending)
                continue
            for winner in contenders:
                if winner.callbacks is None \
                        and not isinstance(winner._value, Exception):
                    self.observe(env._now - start)
                    for loser in pending:
                        loser.callbacks.append(_raise_failure)
                    return winner._value, winner is spare
            if not pending:
                return primary._value, False
            yield pending[0]


def _raise_failure(loser: Event) -> None:
    """A contender the race left behind that completes *failed* — a bug
    in its handler, since a modelled failure arrives as a value —
    raises out of the run: the decided race's ``AnyOf`` has defused it
    by now, and nothing else waits for it."""
    if not loser._ok:
        raise loser._value


def backoff_delay(base_s: float, attempt: int, cap_s: float,
                  rng=None) -> float:
    """Exponential backoff for retry ``attempt`` (1-based), with jitter.

    The uncapped delay doubles per attempt (``base_s * 2**(attempt-1)``),
    is clamped to ``cap_s``, then equal-jittered into
    ``[delay/2, delay)`` when an ``rng`` is supplied — drawn from the sim
    RNG so the schedule is deterministic per seed.  ``rng=None`` gives
    the pure exponential schedule (used by the pinning unit test).
    """
    delay = min(cap_s, base_s * (2 ** (attempt - 1)))
    if rng is not None:
        delay *= 0.5 + rng.random() / 2
    return delay
