"""Elasticity: scale the cluster while it serves.

The campaign counterpart of :mod:`repro.cluster.failure` — instead of
breaking nodes, a :class:`ScaleEngine` adds them mid-run.  The cluster
only scales out: both deployments expose the same two-method surface
(``scale_out_candidate`` / ``apply_scale_out``):

- **Cassandra** bootstraps a spare node into the token ring (pending
  double-writes + range streaming, see
  :meth:`repro.cassandra.deployment.CassandraCluster.bootstrap`);
- **HBase** activates a standby RegionServer (the HMaster rebalances
  regions onto it).

Three modes:

- ``static`` — never scales; the control every elastic run is judged
  against.
- ``manual`` — scale out one node at each instant of a declarative
  schedule, offsets resolved against the measured run's start exactly
  like :class:`~repro.cluster.config.FaultSpec`.
- ``auto`` — a deterministic policy loop: scale out after
  :data:`BREACH_WINDOWS` consecutive :data:`WINDOW_S` windows whose p95
  reaches :data:`P95_BREACH_MS`, with a cooldown between actions.

:func:`build_scale_report` projects a run's measurements over the
engine's event log into per-phase (before / during / after transfer)
latency and staleness columns — the table the campaign prints.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.cluster.config import ElasticityConfig
from repro.ycsb.measurements import Measurements, summarize, total

__all__ = ["BREACH_WINDOWS", "P95_BREACH_MS", "ScaleEngine", "WINDOW_S",
           "build_scale_report"]

# -- the autoscaler policy (mode="auto") --------------------------------
#: Sampling window for the policy loop, seconds.
WINDOW_S = 0.5
#: Scale out after this many consecutive windows at or above the breach.
P95_BREACH_MS = 60.0
BREACH_WINDOWS = 2


class ScaleEngine:
    """Executes one elasticity plan against one deployment.

    Every scale-out is logged as a ``(time, event, node_id)`` pair of
    ``out_start`` / ``out_done`` entries (or one ``out_skipped`` with
    node ``-1`` when no candidate exists); the start→done spans are the
    "during transfer" windows the per-phase report cuts the run by.
    """

    def __init__(self, env, deployment, config: ElasticityConfig,
                 measurements: Optional[Measurements] = None) -> None:
        self.env = env
        self.deployment = deployment
        self.config = config
        #: Live measurements the autoscaler polls (required for "auto").
        self.measurements = measurements
        self.log: list[tuple[float, str, int]] = []
        self._stopped = False
        self._last_cut = 0.0
        self._cooldown_until = 0.0

    def arm(self, base_s: float) -> None:
        """Start the mode's processes; offsets resolve against ``base_s``."""
        cfg = self.config
        if cfg.mode == "manual":
            for i, at_s in enumerate(cfg.events):
                self.env.process(self._fire(base_s + at_s),
                                 name=f"scale-out-{i}")
        elif cfg.mode == "auto":
            if self.measurements is None:
                raise ValueError("autoscaler mode needs live measurements")
            self._last_cut = base_s
            self._cooldown_until = base_s
            self.env.process(self._autoscale(), name="autoscaler")
        # static: nothing to arm.

    def stop(self) -> None:
        """Finish the policy loop at its next wake-up."""
        self._stopped = True

    def _fire(self, at: float) -> Generator:
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        yield from self._scale_out()

    def _scale_out(self) -> Generator:
        node_id = self.deployment.scale_out_candidate()
        if node_id is None:
            self.log.append((self.env.now, "out_skipped", -1))
            return
        self.log.append((self.env.now, "out_start", node_id))
        yield from self.deployment.apply_scale_out(node_id)
        self.log.append((self.env.now, "out_done", node_id))

    def _window_p95_ms(self, cut: float) -> Optional[float]:
        """p95 over samples completed since ``cut`` (None = no traffic)."""
        m = self.measurements
        window = sorted(lat for op in sorted(m.columns)
                        for t, lat in zip(*m.columns[op]) if t > cut)
        if not window:
            return None
        return summarize(window, 0).p95 * 1000.0

    def _autoscale(self) -> Generator:
        cfg = self.config
        breaches = 0
        while not self._stopped:
            yield self.env.timeout(WINDOW_S)
            if self._stopped:
                return
            cut, self._last_cut = self._last_cut, self.env.now
            p95_ms = self._window_p95_ms(cut)
            if p95_ms is None:
                continue
            breaches = breaches + 1 if p95_ms >= P95_BREACH_MS else 0
            if self.env.now < self._cooldown_until:
                continue
            if breaches >= BREACH_WINDOWS:
                breaches = 0
                self._cooldown_until = self.env.now + cfg.cooldown_s
                yield from self._scale_out()


def _transfer_windows(log: Sequence[tuple[float, str, int]],
                      run_end: float) -> list[tuple[float, float]]:
    """start→done spans per logged action (an unpaired start runs to
    the end of the recording)."""
    windows: list[tuple[float, float]] = []
    open_at: dict[int, float] = {}
    for t, event, node_id in log:
        if event.endswith("_start"):
            open_at[node_id] = t
        elif event.endswith("_done") and node_id in open_at:
            windows.append((open_at.pop(node_id), t))
    windows.extend((t, run_end) for t in open_at.values())
    windows.sort()
    return windows


def _phase_stats(latencies: list[float]) -> dict:
    stats = summarize(sorted(latencies), 0)
    return {"ops": stats.count, "mean_ms": stats.mean_ms,
            "p95_ms": stats.p95 * 1000.0, "p99_ms": stats.p99_ms}


def build_scale_report(measurements: Measurements,
                       log: Sequence[tuple[float, str, int]],
                       config: ElasticityConfig,
                       streams: Sequence[tuple[float, int, int, int]] = (),
                       rebalances: int = 0,
                       probe=None) -> dict:
    """JSON-safe elasticity report for one run.

    Cuts the run's samples into **before** (up to the first
    ``*_start``), **during** (inside any start→done transfer window)
    and **after** (past the last ``*_done``) phases, and reports each
    phase's latency profile plus the staleness probe's per-phase
    read-your-writes violations.  A run with no topology events (mode
    "static", or an autoscaler that never acted) lands entirely in
    "before".
    """
    run_end = measurements.finished_at or 0.0
    windows = _transfer_windows(log, run_end)
    first_start = windows[0][0] if windows else None
    last_done = windows[-1][1] if windows else None

    def phase_of(t: float) -> str:
        if first_start is None or t < first_start:
            return "before"
        if any(s <= t <= e for s, e in windows):
            return "during"
        if last_done is not None and t > last_done:
            return "after"
        return "between"

    latencies: dict[str, list[float]] = {
        "before": [], "during": [], "between": [], "after": []}
    for op in sorted(measurements.columns):
        for t, lat in zip(*measurements.columns[op]):
            latencies[phase_of(t)].append(lat)
    phases = {name: _phase_stats(vals) for name, vals in latencies.items()}

    stale: dict[str, int] = {p: 0 for p in phases}
    probe_reads = 0
    if probe is not None:
        probe_reads = probe.probe_reads
        for t, is_stale in probe.reads:
            if is_stale:
                stale[phase_of(t)] += 1
    for name in phases:
        phases[name]["stale_reads"] = stale[name]

    return {
        "mode": config.mode,
        "events": [[t, event, node_id] for t, event, node_id in log],
        "actions": sum(1 for _, event, _ in log
                       if event.endswith("_done")),
        "skipped": sum(1 for _, event, _ in log
                       if event.endswith("_skipped")),
        "transfer_windows": [[s, e] for s, e in windows],
        "transfer_s": total(e - s for s, e in windows),
        "phases": phases,
        "streamed_bytes": sum(b for _, _, _, b in streams),
        "stream_count": len(streams),
        "rebalances": rebalances,
        "probe_reads": probe_reads,
        "stale_reads": sum(stale.values()),
    }
