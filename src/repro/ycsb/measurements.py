"""Latency and throughput measurement.

Per-operation-type latency samples with timestamps (so SLA windows and
failover timelines can be reconstructed), summarized into the statistics
YCSB reports: mean, min, max, and the 50th/95th/99th/99.9th percentiles.
A sample is two unboxed doubles, one in each of its operation type's
columns, so a run's sample store grows by 16 bytes per operation.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional

__all__ = ["LatencyStats", "Measurements"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one operation type's latency samples (seconds)."""

    count: int
    errors: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    #: 99.9th percentile — the tail the defense layer (hedging,
    #: deadlines, load shedding) is judged on.
    p999: float = 0.0

    @property
    def mean_ms(self) -> float:
        return self.mean * 1000.0

    @property
    def p99_ms(self) -> float:
        return self.p99 * 1000.0

    @property
    def p999_ms(self) -> float:
        return self.p999 * 1000.0


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted samples.

    Standard nearest-rank definition: the smallest value with at least
    ``fraction`` of the samples at or below it, i.e. index
    ``ceil(fraction * n) - 1``.  (An earlier ``round(fraction * (n - 1))``
    variant used banker's rounding and misranked small samples — e.g. the
    median of 4 samples came out as the third one.)
    """
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


def mean(values: list[float]) -> float:
    """Mean of non-empty ``values``, added left to right: ``sum()``
    compensates float additions from Python 3.12 on, which would move a
    mean's last bits with the interpreter."""
    return reduce(operator.add, values, 0.0) / len(values)


def total(values: Iterable[float]) -> float:
    """``sum(values)`` added left to right on every Python (see
    :func:`mean`); from int 0, as ``sum()`` starts."""
    return reduce(operator.add, values, 0)


def summarize(latencies: list[float], errors: int) -> LatencyStats:
    """:class:`LatencyStats` of pre-sorted ``latencies`` (all zeros when
    there are none)."""
    if not latencies:
        return LatencyStats(0, errors, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return LatencyStats(
        count=len(latencies),
        errors=errors,
        mean=mean(latencies),
        minimum=latencies[0],
        maximum=latencies[-1],
        p50=percentile(latencies, 0.50),
        p95=percentile(latencies, 0.95),
        p99=percentile(latencies, 0.99),
        p999=percentile(latencies, 0.999),
    )


class Measurements:
    """Collects (timestamp, latency) samples per operation type."""

    def __init__(self) -> None:
        #: op name -> (completion times, latencies in seconds): two
        #: ``array('d')`` columns appended in completion order, so the
        #: i-th entries of both are one sample (``zip`` them).
        self.columns: dict[str, tuple[array, array]] = {}
        #: op name -> arrivals offered (open-loop runs).  Offered counts
        #: every intended request — completed, errored, shed or rate
        #: limited — which is the denominator goodput is judged against.
        self.offered: dict[str, int] = {}
        self.first_arrival_at: Optional[float] = None
        self.last_arrival_at: Optional[float] = None
        self.errors: dict[str, int] = {}
        #: error kind (exception class name) -> count.  Distinguishes an
        #: ``RpcTimeout`` burst (slow/unreachable coordinator) from
        #: ``UnavailableError`` (not enough live replicas for the CL) from
        #: ``DeadNodeError`` (no coordinator at all) in failover reports.
        self.errors_by_type: dict[str, int] = {}
        #: (time, op, kind) per error, for error-aware timelines.  Errors
        #: recorded without a timestamp are counted above but not placed.
        self.error_events: list[tuple[float, str, str]] = []
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def record(self, op: str, completed_at: float, latency: float) -> None:
        # A subscript, not ``dict.get``: one call fewer per operation.
        try:
            times, latencies = self.columns[op]
        except KeyError:
            times, latencies = self.columns[op] = (array("d"), array("d"))
        times.append(completed_at)
        latencies.append(latency)

    def record_arrival(self, op: str, at: float) -> None:
        """Count one offered (intended) request at its arrival time.

        Open-loop clients call this for *every* arrival before knowing
        its fate; latency recorded later must be measured from this
        arrival (not from dequeue), so queueing delay is charged rather
        than coordinated-omitted.
        """
        self.offered[op] = self.offered.get(op, 0) + 1
        if self.first_arrival_at is None or at < self.first_arrival_at:
            self.first_arrival_at = at
        if self.last_arrival_at is None or at > self.last_arrival_at:
            self.last_arrival_at = at

    def record_error(self, op: str, kind: str = "error",
                     at: Optional[float] = None) -> None:
        self.errors[op] = self.errors.get(op, 0) + 1
        self.errors_by_type[kind] = self.errors_by_type.get(kind, 0) + 1
        if at is not None:
            self.error_events.append((at, op, kind))

    @property
    def total_ops(self) -> int:
        return sum(len(times) for times, _ in self.columns.values())

    @property
    def total_errors(self) -> int:
        return sum(self.errors.values())

    @property
    def duration(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Runtime throughput: completed operations per second."""
        duration = self.duration
        return self.total_ops / duration if duration > 0 else 0.0

    @property
    def offered_total(self) -> int:
        """Total arrivals offered (0 for closed-loop runs)."""
        return sum(self.offered.values())

    @property
    def offered_throughput(self) -> float:
        """Offered load over the arrival span, arrivals per second.

        Measured over first-to-last *arrival* rather than the run's
        full duration: the drain tail after the last arrival carries no
        offered load, and including it would understate the pressure
        the system was actually under.
        """
        offered = self.offered_total
        if (offered < 2 or self.first_arrival_at is None
                or self.last_arrival_at is None
                or self.last_arrival_at <= self.first_arrival_at):
            return 0.0
        return offered / (self.last_arrival_at - self.first_arrival_at)

    # The sorted latencies are built per request and not kept: a run
    # asks for them once or twice, after it ends, and a kept copy would
    # hold twice the columns' memory for the rest of the run.
    def stats(self, op: str) -> LatencyStats:
        columns = self.columns.get(op)
        return summarize(sorted(columns[1]) if columns else [],
                         self.errors.get(op, 0))

    def overall_stats(self) -> LatencyStats:
        merged: list[float] = []
        for _, latencies in self.columns.values():
            merged.extend(latencies)
        merged.sort()
        return summarize(merged, self.total_errors)

    def timeline_with_errors(
            self, bucket_s: float) -> list[tuple[float, int, float, int]]:
        """(bucket start, ops, mean latency, errors) per time bucket.

        Buckets are laid out over the union of success *and* error
        timestamps (an outage window where nothing completes but
        everything errors still shows up), and the run is zero-filled out
        to ``finished_at`` so a throughput dip at the end of the
        recording is visible rather than truncated.  The failover report
        plots throughput around a fault from it, the way Pokluda et al.
        (paper §5) present theirs.
        """
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        all_samples = sorted(
            sample for columns in self.columns.values()
            for sample in zip(*columns))
        error_times = sorted(t for t, _, _ in self.error_events)
        if not all_samples and not error_times:
            return []
        starts = []
        if all_samples:
            starts.append(all_samples[0][0])
        if error_times:
            starts.append(error_times[0])
        first = min(starts)
        ends = []
        if all_samples:
            ends.append(all_samples[-1][0])
        if error_times:
            ends.append(error_times[-1])
        if self.finished_at is not None:
            ends.append(self.finished_at)
        last = max(ends)
        out: list[tuple[float, int, float, int]] = []
        bucket_start = (first // bucket_s) * bucket_s
        si = ei = 0
        while bucket_start <= last:
            bucket_end = bucket_start + bucket_s
            lats: list[float] = []
            while si < len(all_samples) and all_samples[si][0] < bucket_end:
                lats.append(all_samples[si][1])
                si += 1
            errors = 0
            while ei < len(error_times) and error_times[ei] < bucket_end:
                errors += 1
                ei += 1
            average = mean(lats) if lats else 0.0
            out.append((bucket_start, len(lats), average, errors))
            bucket_start = bucket_end
        return out
