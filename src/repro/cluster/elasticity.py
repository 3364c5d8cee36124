"""Elasticity: scale the cluster while it serves.

The campaign counterpart of :mod:`repro.cluster.failure` — instead of
breaking nodes, a :class:`ScaleEngine` adds and removes them mid-run.
Both deployments expose the same four-method surface
(``scale_out_candidate`` / ``scale_in_candidate`` /
``apply_scale_out`` / ``apply_scale_in``):

- **Cassandra** bootstraps a spare node into the token ring (pending
  double-writes + range streaming, see
  :meth:`repro.cassandra.deployment.CassandraCluster.bootstrap`) or
  decommissions the highest live member;
- **HBase** activates a standby RegionServer (the HMaster rebalances
  regions onto it) or drains one back to standby.

Three modes:

- ``static`` — never scales; the control every elastic run is judged
  against.
- ``manual`` — a declarative :class:`ScaleEventSpec` schedule, offsets
  resolved against the measured run's start exactly like
  :class:`~repro.cluster.failure.FaultSpec`.
- ``auto`` — a deterministic policy loop: scale out after
  ``breach_windows`` consecutive windows whose p95 exceeds
  ``p95_breach_ms``, scale in after ``idle_windows`` consecutive
  windows below ``p95_relax_ms``, with a cooldown between actions.

:func:`build_scale_report` projects a run's measurements over the
engine's event log into per-phase (before / during / after transfer)
latency and staleness columns — the table the campaign prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.ycsb.measurements import Measurements, percentile

__all__ = ["ElasticityConfig", "SCALE_ACTIONS", "SCALE_MODES",
           "ScaleEngine", "ScaleEventSpec", "build_scale_report"]

SCALE_ACTIONS = ("out", "in")
SCALE_MODES = ("static", "manual", "auto")


@dataclass(frozen=True)
class ScaleEventSpec:
    """One declarative scale step (manual mode), JSON-safe.

    ``at_s`` is relative to the measured run's start — the engine
    offsets it by the run's base time when armed, exactly like
    :meth:`repro.cluster.failure.FailureInjector.inject`.
    """

    action: str = "out"
    at_s: float = 2.0
    count: int = 1

    def __post_init__(self) -> None:
        if self.action not in SCALE_ACTIONS:
            raise ValueError(f"unknown scale action {self.action!r}; "
                             f"choose from {SCALE_ACTIONS}")
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class ElasticityConfig:
    """JSON-safe elasticity plan carried by an ExperimentConfig."""

    #: "static" (control), "manual" (event schedule) or "auto"
    #: (p95-driven policy loop).
    mode: str = "manual"
    #: Trailing server nodes provisioned outside the serving set at
    #: build time — the pool scale-out draws from.
    spare_nodes: int = 1
    #: Manual mode's schedule.
    events: tuple[ScaleEventSpec, ...] = (ScaleEventSpec(),)
    # -- autoscaler policy (mode="auto") --------------------------------
    #: Sampling window for the policy loop.
    window_s: float = 1.0
    #: Scale out after this many consecutive windows above the breach.
    p95_breach_ms: float = 50.0
    breach_windows: int = 2
    #: Scale in after this many consecutive windows below the relax
    #: threshold (hysteresis: relax < breach, so the loop cannot flap).
    p95_relax_ms: float = 10.0
    idle_windows: int = 6
    #: Minimum time between two actions (covers the streaming window).
    cooldown_s: float = 8.0

    def __post_init__(self) -> None:
        if self.mode not in SCALE_MODES:
            raise ValueError(f"unknown elasticity mode {self.mode!r}; "
                             f"choose from {SCALE_MODES}")
        if self.spare_nodes < 0:
            raise ValueError("spare_nodes must be >= 0")
        if self.window_s <= 0 or self.cooldown_s < 0:
            raise ValueError("window_s must be > 0 and cooldown_s >= 0")
        if self.breach_windows < 1 or self.idle_windows < 1:
            raise ValueError("breach_windows and idle_windows must be >= 1")
        if self.p95_relax_ms >= self.p95_breach_ms:
            raise ValueError("p95_relax_ms must sit below p95_breach_ms "
                             "(hysteresis)")


class ScaleEngine:
    """Executes one elasticity plan against one deployment.

    Every action is logged as a ``(time, event, node_id)`` pair of
    ``{action}_start`` / ``{action}_done`` entries (or one
    ``{action}_skipped`` with node ``-1`` when no candidate exists);
    the start→done spans are the "during transfer" windows the
    per-phase report cuts the run by.
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
            for i, event in enumerate(cfg.events):
                self.env.process(self._fire(event, base_s),
                                 name=f"scale-{event.action}-{i}")
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

    def _fire(self, event: ScaleEventSpec, base_s: float) -> Generator:
        at = base_s + event.at_s
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        for _ in range(event.count):
            yield from self._step(event.action)

    def _step(self, action: str) -> Generator:
        dep = self.deployment
        node_id = (dep.scale_out_candidate() if action == "out"
                   else dep.scale_in_candidate())
        if node_id is None:
            self.log.append((self.env.now, f"{action}_skipped", -1))
            return
        self.log.append((self.env.now, f"{action}_start", node_id))
        if action == "out":
            yield from dep.apply_scale_out(node_id)
        else:
            yield from dep.apply_scale_in(node_id)
        self.log.append((self.env.now, f"{action}_done", node_id))

    def _window_p95_ms(self, cut: float) -> Optional[float]:
        """p95 over samples completed since ``cut`` (None = no traffic)."""
        m = self.measurements
        window = sorted(lat for op in sorted(m.samples)
                        for (t, lat) in m.samples[op] if t > cut)
        if not window:
            return None
        return percentile(window, 0.95) * 1000.0

    def _autoscale(self) -> Generator:
        cfg = self.config
        breaches = idles = 0
        while not self._stopped:
            yield self.env.timeout(cfg.window_s)
            if self._stopped:
                return
            cut, self._last_cut = self._last_cut, self.env.now
            p95_ms = self._window_p95_ms(cut)
            if p95_ms is None:
                continue
            if p95_ms >= cfg.p95_breach_ms:
                breaches, idles = breaches + 1, 0
            elif p95_ms <= cfg.p95_relax_ms:
                breaches, idles = 0, idles + 1
            else:
                breaches = idles = 0
            if self.env.now < self._cooldown_until:
                continue
            if breaches >= cfg.breach_windows:
                breaches = idles = 0
                self._cooldown_until = self.env.now + cfg.cooldown_s
                yield from self._step("out")
            elif idles >= cfg.idle_windows:
                breaches = idles = 0
                self._cooldown_until = self.env.now + cfg.cooldown_s
                yield from self._step("in")


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
    if not latencies:
        return {"ops": 0, "mean_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    ordered = sorted(latencies)
    return {
        "ops": len(ordered),
        "mean_ms": sum(ordered) / len(ordered) * 1000.0,
        "p95_ms": percentile(ordered, 0.95) * 1000.0,
        "p99_ms": percentile(ordered, 0.99) * 1000.0,
    }


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
    for op in sorted(measurements.samples):
        for t, lat in measurements.samples[op]:
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
        "transfer_s": sum(e - s for s, e in windows),
        "phases": phases,
        "streamed_bytes": sum(b for _, _, _, b in streams),
        "stream_count": len(streams),
        "rebalances": rebalances,
        "probe_reads": probe_reads,
        "stale_reads": sum(stale.values()),
    }
