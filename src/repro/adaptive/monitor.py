"""Online windowed estimator: latency percentiles + staleness risk.

The monitor is the sensing half of the adaptive-consistency loop
(:mod:`repro.adaptive.controller` is the actuation half).  It is driven
entirely by operation completions — no background process touches the
simulation clock — so a run with an attached monitor is bit-identical
to the same run without one, and two runs of the same cell close their
windows at identical simulated times.

Three pieces:

- :class:`SloSpec` — the declared objective: "p95 read latency <= L ms
  AND staleness <= S s / read-your-writes risk rate <= v".
- :class:`RecentWrites` — a bounded client-side sketch of keys written
  within the staleness bound.  At CL ONE there are no blocking digests,
  so the server gives no staleness signal at all; the sketch is how the
  controller knows a read is *at risk* (racing a fresh write) before
  issuing it.
- :class:`Monitor` — rolls fixed-size windows over read/write
  completions, computing per-window nearest-rank percentiles (the same
  definition as :func:`repro.ycsb.measurements.percentile`), the
  at-risk/exposed read fractions, error counts, and deltas of the
  coordinator's anti-entropy counters (read repairs, hints, sheds) from
  an optional ``signal_source``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.ycsb.measurements import percentile

__all__ = ["Monitor", "RecentWrites", "SloSpec", "WindowStats"]

#: Coordinator counters whose per-window deltas feed the risk score.
SIGNAL_KEYS = ("read_repairs", "repair_mutations", "background_repairs",
               "hints_stored", "admission_sheds")

#: Gauges sampled at window close (levels, not monotone counters).
GAUGE_KEYS = ("hint_backlog",)


@dataclass(frozen=True)
class SloSpec:
    """The declared service-level objective the controller steers by."""

    #: Latency half: p95 read latency must stay at or below this.
    p95_ms: float = 10.0
    #: Staleness half: reads must not observe versions older than this
    #: bound, and no more than ``risk_rate`` of a window's reads may be
    #: *exposed* to that risk (an at-risk read served at a weak CL).
    staleness_s: float = 0.25
    risk_rate: float = 0.01
    #: Monitoring window length, simulated seconds.
    window_s: float = 0.5

    def __post_init__(self) -> None:
        if self.p95_ms <= 0 or self.staleness_s <= 0 or self.window_s <= 0:
            raise ValueError("p95_ms, staleness_s and window_s must be "
                             "positive")
        if not 0 <= self.risk_rate <= 1:
            raise ValueError("risk_rate must be in [0, 1]")


class RecentWrites:
    """Bounded key -> last-write-invocation-time sketch.

    ``written_within`` answers "was this key written inside the
    staleness bound?" — the QoD-style freshness test.  The sketch is
    shared by every workload thread (one controller per run), so it
    sees *all* client writes, which is exactly the population a
    read-your-writes / fresh-read race can involve.  Pruning is
    deterministic: expired entries go first, then the oldest survivors.
    """

    def __init__(self, bound_s: float, capacity: int = 4096) -> None:
        if bound_s <= 0 or capacity < 1:
            raise ValueError("bound_s must be positive, capacity >= 1")
        self.bound_s = bound_s
        self.capacity = capacity
        #: insertion-ordered (dict) key -> last write invocation time.
        self._writes: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._writes)

    def note_write(self, key: str, at_s: float) -> None:
        # Re-inserting moves the key to the newest position, keeping the
        # dict ordered by last-write time (never decreasing).
        self._writes.pop(key, None)
        self._writes[key] = at_s
        if len(self._writes) > self.capacity:
            self._prune(at_s)

    def written_within(self, key: str, now_s: float) -> bool:
        at = self._writes.get(key)
        return at is not None and now_s - at <= self.bound_s

    def _prune(self, now_s: float) -> None:
        cutoff = now_s - self.bound_s
        fresh = {k: t for k, t in self._writes.items() if t >= cutoff}
        if len(fresh) > self.capacity:
            # Still over budget: drop the oldest fresh entries.  Order is
            # last-write order, so slicing the tail keeps the newest.
            items = list(fresh.items())
            fresh = dict(items[len(items) - self.capacity:])
        self._writes = fresh


@dataclass
class WindowStats:
    """One closed monitoring window."""

    start_s: float
    reads: int = 0
    writes: int = 0
    errors: int = 0
    #: Reads of keys written inside the staleness bound (any CL).
    at_risk_reads: int = 0
    #: At-risk reads that were *served at a weak CL* (required acks == 1)
    #: — the population an SLO's risk_rate actually constrains.
    exposed_reads: int = 0
    read_p95_ms: float = 0.0
    read_p99_ms: float = 0.0
    #: Per-window deltas of the coordinator counters (SIGNAL_KEYS).
    signals: dict = field(default_factory=dict)
    _read_latencies: list[float] = field(default_factory=list, repr=False)

    @property
    def ops(self) -> int:
        return self.reads + self.writes

    @property
    def exposed_fraction(self) -> float:
        return self.exposed_reads / self.reads if self.reads else 0.0

    def _close(self) -> None:
        if self._read_latencies:
            ordered = sorted(self._read_latencies)
            self.read_p95_ms = percentile(ordered, 0.95) * 1000.0
            self.read_p99_ms = percentile(ordered, 0.99) * 1000.0
        self._read_latencies.clear()

    def to_dict(self) -> dict:
        return {
            "start_s": self.start_s,
            "reads": self.reads,
            "writes": self.writes,
            "errors": self.errors,
            "at_risk_reads": self.at_risk_reads,
            "exposed_reads": self.exposed_reads,
            "read_p95_ms": self.read_p95_ms,
            "read_p99_ms": self.read_p99_ms,
            "signals": dict(sorted(self.signals.items())),
        }


class Monitor:
    """Windowed estimator driven by operation completions.

    ``clock`` is a zero-argument callable returning simulated time
    (``lambda: env.now``); ``signal_source`` optionally returns the
    current coordinator counter totals (e.g. a closure over
    ``CassandraCluster.total_stats()`` plus the hint backlog) whose
    per-window deltas land in :attr:`WindowStats.signals`.

    Window rolling is lazy: :meth:`roll` closes every window boundary
    the clock has passed, so windows align to multiples of
    ``slo.window_s`` regardless of when operations complete.  Empty
    windows are not materialized (an idle gap produces no windows:
    nothing to decide on).
    """

    def __init__(self, slo: SloSpec, clock: Callable[[], float],
                 signal_source: Optional[Callable[[], dict]] = None,
                 sketch_capacity: int = 4096) -> None:
        self.slo = slo
        self.clock = clock
        self.signal_source = signal_source
        self.recent_writes = RecentWrites(slo.staleness_s,
                                          capacity=sketch_capacity)
        #: Closed windows, oldest first.
        self.windows: list[WindowStats] = []
        self._current: Optional[WindowStats] = None
        self._last_signals: dict = {}
        #: Called with each freshly closed WindowStats (the policy hook).
        self.on_window: Optional[Callable[[WindowStats], None]] = None

    # -- window plumbing -------------------------------------------------

    def _window_start(self, now_s: float) -> float:
        width = self.slo.window_s
        return (now_s // width) * width

    def roll(self) -> None:
        """Close every window boundary the clock has passed."""
        now = self.clock()
        current = self._current
        if current is not None \
                and now >= current.start_s + self.slo.window_s:
            self._close_current()

    def _close_current(self) -> None:
        window = self._current
        assert window is not None
        window._close()
        if self.signal_source is not None:
            totals = self.signal_source()
            window.signals = {
                key: totals.get(key, 0) - self._last_signals.get(key, 0)
                for key in SIGNAL_KEYS}
            for key in GAUGE_KEYS:
                if key in totals:
                    window.signals[key] = totals[key]
            self._last_signals = dict(totals)
        self.windows.append(window)
        self._current = None
        if self.on_window is not None:
            self.on_window(window)

    def _window(self) -> WindowStats:
        now = self.clock()
        if self._current is not None \
                and now >= self._current.start_s + self.slo.window_s:
            self._close_current()
        if self._current is None:
            if self.signal_source is not None and not self._last_signals:
                # Baseline snapshot so the first window reports deltas
                # over its own span, not since the dawn of the run.
                self._last_signals = dict(self.signal_source())
            self._current = WindowStats(start_s=self._window_start(now))
        return self._current

    # -- observations ----------------------------------------------------

    def at_risk(self, key: str) -> bool:
        """Was ``key`` written inside the staleness bound (sketch test)?"""
        return self.recent_writes.written_within(key, self.clock())

    def observe_read_decision(self, at_risk: bool, exposed: bool) -> None:
        """Count a read (and its risk/exposure) in the window of its
        *decision*.  Risk is a property of the CL chosen, so it must land
        in the window whose close produced that level — a read decided
        at ONE just before a boundary must not leak exposure into the
        next window, where the policy may already have escalated."""
        window = self._window()
        window.reads += 1
        if at_risk:
            window.at_risk_reads += 1
            if exposed:
                window.exposed_reads += 1

    def observe_read_latency(self, latency_s: float) -> None:
        """Feed a completed read's latency into the *current* window
        (completion-time attribution, like the YCSB timeline)."""
        self._window()._read_latencies.append(latency_s)

    def observe_write(self, key: str, invoked_at_s: float) -> None:
        self.recent_writes.note_write(key, invoked_at_s)
        self._window().writes += 1

    def observe_error(self) -> None:
        self._window().errors += 1

    def flush(self) -> None:
        """Close the in-progress window (end of run)."""
        if self._current is not None:
            self._close_current()
