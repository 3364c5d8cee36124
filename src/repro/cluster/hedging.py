"""Speculative-retry (hedged request) delay policies.

Cassandra 2.0.2 introduced *rapid read protection* (``speculative_retry``
per table): when the primary replica has not answered after a delay, the
coordinator duplicates the read to the next-fastest replica and takes
whichever response lands first.  The delay is either fixed ("50ms") or a
percentile of the table's recent read latency ("99percentile").

:class:`HedgePolicy` models both forms and is shared by the Cassandra
coordinator and the HBase client: callers feed completed-request
latencies into :meth:`observe` and ask :meth:`delay` when to fire the
hedge; :meth:`race` is the hedged wait itself, written once for both.
Percentile policies warm up — before ``min_samples``
observations they return ``None`` (no hedging), matching how a fresh
table has no latency history to speculate from.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

from repro.sim.kernel import AnyOf, Environment, Event, Timeout

__all__ = ["HedgePolicy", "parse_hedge_spec"]


def parse_hedge_spec(spec: str) -> tuple[str, float]:
    """Parse a speculative-retry spec string.

    Accepted forms (case-insensitive):

    - ``"50ms"`` — fixed delay in milliseconds → ``("fixed", 0.05)``
    - ``"p99"`` / ``"99percentile"`` — latency percentile →
      ``("percentile", 0.99)``
    """
    text = spec.strip().lower()
    if text.endswith("ms"):
        return ("fixed", float(text[:-2]) / 1000.0)
    if text.startswith("p"):
        value = float(text[1:])
    elif text.endswith("percentile"):
        value = float(text[:-len("percentile")])
    else:
        raise ValueError(
            f"unknown speculative-retry spec {spec!r}; use e.g. "
            f"'50ms', 'p99' or '99percentile'")
    if not 0 < value < 100:
        raise ValueError(f"percentile must be in (0, 100), got {value}")
    return ("percentile", value / 100.0)


class HedgePolicy:
    """When to duplicate a straggling request to another server.

    Parameters
    ----------
    spec:
        ``"NNms"`` (fixed) or ``"pNN"`` / ``"NNpercentile"``.
    window:
        How many recent latencies the percentile form remembers.
    min_samples:
        Percentile policies return ``None`` (no hedge) until this many
        latencies have been observed.
    """

    def __init__(self, spec: str, window: int = 256,
                 min_samples: int = 16) -> None:
        self.spec = spec
        self.kind, self.value = parse_hedge_spec(spec)
        self.window = window
        self.min_samples = min_samples
        self._latencies: list[float] = []
        self._next = 0  # ring-buffer cursor once the window is full
        #: Hedges issued / hedges whose duplicate answered first.
        self.hedges = 0
        self.wins = 0

    def observe(self, latency_s: float) -> None:
        """Record one completed request's latency (percentile history)."""
        if self.kind != "percentile":
            return
        if len(self._latencies) < self.window:
            self._latencies.append(latency_s)
        else:
            self._latencies[self._next] = latency_s
            self._next = (self._next + 1) % self.window

    def delay(self) -> Optional[float]:
        """Seconds to wait before hedging; ``None`` = do not hedge yet."""
        if self.kind == "fixed":
            return self.value
        if len(self._latencies) < self.min_samples:
            return None
        ordered = sorted(self._latencies)
        # Nearest-rank percentile, the same definition Measurements uses.
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(self.value * len(ordered)) - 1))
        return ordered[rank]

    def race(self, env: Environment, primary: Event,
             launch_spare: Optional[Callable[[], Generator]]) -> Generator:
        """Wait for ``primary``, duplicating it when it straggles
        (``yield from`` this); returns ``(value, spare_won)``.

        Once :meth:`delay` passes without a successful ``primary`` — or
        as soon as it has failed — ``launch_spare()`` sends the duplicate
        (a generator: the HBase client re-locates the region through the
        HMaster first) and the first contender to complete with a
        non-exception value wins; the loser's caller-side wait is
        interrupted (the work drains server-side).  When both fail the
        value is the primary's exception.  No delay yet (a percentile
        policy warming up) or no ``launch_spare`` (no spare replica)
        means a plain wait.  Every success feeds the latency history.
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
        self.hedges += 1
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
                    loser = spare if winner is primary else primary
                    if loser.is_alive:
                        loser.interrupt("hedge lost")
                    if winner is spare:
                        self.wins += 1
                    self.observe(env._now - start)
                    return winner._value, winner is spare
            if not pending:
                return primary._value, False
            yield pending[0]
