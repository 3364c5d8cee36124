"""Availability metrics for fault-injection campaigns.

Turns the raw artefacts of a degraded run — the
:class:`~repro.cluster.failure.FailureInjector` log, the error-aware
:meth:`~repro.ycsb.measurements.Measurements.timeline_with_errors`, and a
read-your-writes :class:`StalenessProbe` — into one JSON-safe
``FailoverReport`` dict:

- **time to detection** — fault injection to first client-visible impact
  (an error, or the first throughput-dip bucket);
- **time to recovery** — fault injection to the end of the last degraded
  bucket, i.e. how long clients felt the fault;
- **error window** — span between the first and last client error;
- **errors by type** — ``RpcTimeout`` vs ``UnavailableError`` vs
  ``DeadNodeError`` etc., so an unreachable coordinator is
  distinguishable from a CL that cannot be met;
- **stale reads** — read-your-writes violations the probe observed after
  the fault fired (the consistency cost of riding out the outage, the
  quantity the QoD geo-replication work measures).

All values are plain floats/ints/lists so a report round-trips through
the cell cache byte-identically.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.cluster.config import FAULT_ACTIONS
from repro.keyspace import key_for_token
from repro.sim.kernel import ModelledFailure
from repro.ycsb.measurements import Measurements

__all__ = ["StalenessProbe", "build_failover_report"]

#: A bucket whose throughput falls below this fraction of the expected
#: rate counts as degraded (the dip detector's threshold).
DIP_FRACTION = 0.5

#: Width of the timeline buckets the dip detector compares, in seconds.
BUCKET_S = 1.0

#: Seconds between the staleness probe's write-then-read rounds.
PROBE_INTERVAL_S = 0.25
#: Size of the probe's record, in bytes.
PROBE_RECORD_BYTES = 100
#: The probe's key: token 0 routes like any record key but collides with
#: no workload key (those are FNV-scrambled insertion indexes).
PROBE_KEY = key_for_token(0)

#: The log actions that end a fault on a target rather than start it.
_HEAL_ACTIONS = frozenset(heal for _, heal in FAULT_ACTIONS.values())


class StalenessProbe:
    """Read-your-writes probe running alongside a degraded workload.

    Every :data:`PROBE_INTERVAL_S` the probe writes a monotonically
    increasing sequence number to :data:`PROBE_KEY`, then reads the key
    back.  A read that
    returns less than the highest *acknowledged* write is a
    read-your-writes violation — exactly what a client sees when a weak
    CL accepts a write whose only live replica then serves a stale value
    (e.g. Cassandra CL=ONE during hinted handoff, before replay).
    """

    def __init__(self, env, db) -> None:
        self.env = env
        self.db = db
        #: (time, stale) per successful probe read.
        self.reads: list[tuple[float, bool]] = []
        self.probe_reads = 0
        self.stale_reads = 0
        self._acked = 0
        self._seq = 0
        self._stopped = False

    def stop(self) -> None:
        """Finish at the next wake-up (keeps the event queue clean)."""
        self._stopped = True

    def stale_since(self, t: float) -> int:
        """Stale reads observed at or after simulation time ``t``."""
        return sum(1 for at, stale in self.reads if stale and at >= t)

    def run(self) -> Generator:
        """The probe loop (a simulation process)."""
        while not self._stopped:
            yield self.env.timeout(PROBE_INTERVAL_S)
            if self._stopped:
                return
            self._seq += 1
            seq = self._seq
            try:
                yield from self.db.write(PROBE_KEY, seq, PROBE_RECORD_BYTES)
                self._acked = max(self._acked, seq)
            except ModelledFailure:
                pass
            acked = self._acked
            if not acked:
                continue
            try:
                result = yield from self.db.read(PROBE_KEY,
                                                 PROBE_RECORD_BYTES)
            except ModelledFailure:
                continue
            value = result[0] if result is not None else None
            stale = value is None or value < acked
            self.probe_reads += 1
            self.stale_reads += int(stale)
            self.reads.append((self.env.now, stale))


def _expected_ops_per_bucket(timeline: Sequence[tuple],
                             target_throughput: Optional[float],
                             fault_at: float) -> float:
    """Baseline throughput the dip detector compares buckets against."""
    if target_throughput:
        return target_throughput * BUCKET_S
    healthy = [ops for start, ops, _, _ in timeline
               if start + BUCKET_S <= fault_at]
    if healthy:
        return sum(healthy) / len(healthy)
    all_ops = [ops for _, ops, _, _ in timeline]
    return sum(all_ops) / len(all_ops) if all_ops else 0.0


def build_failover_report(
        measurements: Measurements,
        injector_log: Sequence[tuple[float, int, str]],
        target_throughput: Optional[float] = None,
        expected_end: Optional[float] = None,
        probe: Optional[StalenessProbe] = None) -> dict:
    """Compute the availability report for one degraded run, over a
    timeline of :data:`BUCKET_S`-wide buckets.

    Parameters
    ----------
    measurements:
        The run's measurements (error events included).
    injector_log:
        ``(time, node_id, action)`` entries from the injector.
    target_throughput:
        The run's offered-load cap; the dip baseline when given.
    expected_end:
        When the run *would* end at the target rate.  A closed-loop
        client's stragglers (threads parked on a timeout) stretch the
        recording past the steady phase with near-empty trailing buckets;
        dip detection ignores buckets beyond this bound so that ramp-down
        artefact is not mistaken for a slow recovery.  (Buckets with
        errors always count.)
    probe:
        The run's staleness probe, if one was attached.
    """
    effective = [(t, n, a) for t, n, a in injector_log
                 if not a.endswith("-noop")]
    fault_times = [t for t, _, a in effective if a not in _HEAL_ACTIONS]
    heal_times = [t for t, _, a in effective if a in _HEAL_ACTIONS]
    fault_at = min(fault_times) if fault_times else None
    cleared_at = max(heal_times) if heal_times else None

    timeline = measurements.timeline_with_errors(BUCKET_S)
    error_times = sorted(t for t, _, _ in measurements.error_events)
    error_window_s = (error_times[-1] - error_times[0]
                      if len(error_times) > 1 else 0.0)

    time_to_detection: Optional[float] = None
    time_to_recovery = 0.0
    if fault_at is not None and timeline:
        expected = _expected_ops_per_bucket(timeline, target_throughput,
                                            fault_at)
        window_end = measurements.finished_at or timeline[-1][0] + BUCKET_S
        if expected_end is not None:
            window_end = min(window_end, expected_end)
        impacts: list[tuple[float, float]] = []  # (start, end) of impact
        for start, ops, _, errors in timeline:
            end = start + BUCKET_S
            if end <= fault_at:
                continue
            if errors:
                impacts.append((start, end))
            elif (expected > 0 and ops < DIP_FRACTION * expected
                  and end <= window_end):
                impacts.append((start, end))
        first_error = next((t for t in error_times if t >= fault_at), None)
        if impacts:
            first_impact = impacts[0][0]
            if first_error is not None:
                first_impact = min(first_impact, first_error)
            time_to_detection = max(0.0, first_impact - fault_at)
            time_to_recovery = max(0.0, impacts[-1][1] - fault_at)
        elif first_error is not None:
            time_to_detection = first_error - fault_at
            time_to_recovery = max(0.0, error_times[-1] - fault_at)

    stale_reads = 0
    probe_reads = 0
    if probe is not None:
        probe_reads = probe.probe_reads
        stale_reads = (probe.stale_since(fault_at) if fault_at is not None
                       else probe.stale_reads)

    return {
        "fault_at_s": fault_at,
        "cleared_at_s": cleared_at,
        "time_to_detection_s": time_to_detection,
        "time_to_recovery_s": time_to_recovery,
        "error_window_s": error_window_s,
        "errors": sum(measurements.errors_by_type.values()),
        "errors_by_type": dict(sorted(measurements.errors_by_type.items())),
        "stale_reads": stale_reads,
        "probe_reads": probe_reads,
        "injections": [[t, n, a] for t, n, a in injector_log],
        "timeline": [[start, ops, mean * 1000.0, errors]
                     for start, ops, mean, errors in timeline],
        "bucket_s": BUCKET_S,
    }
