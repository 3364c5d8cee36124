"""Closed-loop YCSB client: worker threads + target-throughput throttle.

The paper's methodology (§3.1, §4.2) maps onto three pieces:

- **client threads** — each worker issues its next operation only after
  the previous one completed (closed loop), which is why "the runtime
  throughput is inverted-related with the latency in all tests";
- **target throughput** — a per-thread pacing schedule: each worker owns
  ``target / n_threads`` operations per second and sleeps whenever it is
  ahead of schedule, exactly like YCSB's ``-target`` option;
- **warm-up** — the first fraction of operations is executed but not
  recorded, the paper's countermeasure against cold-start effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.keyspace import key_for_index
from repro.sim.kernel import AllOf, Environment, ModelledFailure
from repro.ycsb.db import DbBinding
from repro.ycsb.measurements import Measurements
from repro.ycsb.workload import OperationType, Workload

__all__ = ["LoadResult", "RunResult", "YcsbClient"]


@dataclass(frozen=True)
class LoadResult:
    records: int
    duration_s: float
    throughput: float


@dataclass(frozen=True)
class RunResult:
    workload: str
    operations: int
    not_found: int
    duration_s: float
    #: Achieved (runtime) throughput, ops/s.
    throughput: float
    #: Requested target throughput (None = unthrottled full speed).
    target_throughput: Optional[float]
    measurements: Measurements
    #: Total arrivals offered by an open-loop run (``None`` marks a
    #: closed-loop run, where offered load is not an independent input).
    offered: Optional[int] = None
    #: JSON-safe reports contributed by whoever observed the run, keyed
    #: as they appear in the run's summary.
    reports: dict = field(default_factory=dict)

    @classmethod
    def of(cls, workload: Workload, measurements: Measurements,
           not_found: int, target: Optional[float],
           offered: Optional[int] = None) -> "RunResult":
        """A finished run's result; counts and rates are the store's."""
        return cls(workload=workload.spec.name,
                   operations=measurements.total_ops, not_found=not_found,
                   duration_s=measurements.duration,
                   throughput=measurements.throughput,
                   target_throughput=target, measurements=measurements,
                   offered=offered)

    def stats(self, op: str):
        return self.measurements.stats(op)

    def overall(self):
        return self.measurements.overall_stats()


class YcsbClient:
    """Drives one workload against one database binding."""

    def __init__(self, env: Environment, db: DbBinding,
                 workload: Workload) -> None:
        self.env = env
        self.db = db
        self.workload = workload

    # -- load phase ------------------------------------------------------

    def load(self, record_count: int, n_threads: int = 16) -> Generator:
        """Insert ``record_count`` records (a simulation process)."""
        started = self.env.now
        indexes = list(range(record_count))
        shards = [indexes[i::n_threads] for i in range(n_threads)]
        workers = [self.env.process(self._load_worker(shard),
                                    name=f"load-{i}")
                   for i, shard in enumerate(shards) if shard]
        if workers:
            yield AllOf(self.env, workers)
        duration = self.env.now - started
        return LoadResult(records=record_count, duration_s=duration,
                          throughput=record_count / duration
                          if duration > 0 else 0.0)

    def _load_worker(self, indexes: list[int]) -> Generator:
        size = self.workload.spec.record_bytes
        for index in indexes:
            payload, _ = self.workload.next_value()
            try:
                yield from self.db.write(key_for_index(index), payload, size)
            except ModelledFailure:
                continue

    # -- run phase ------------------------------------------------------

    def run(self, operation_count: int, n_threads: int = 16,
            target_throughput: Optional[float] = None,
            warmup_fraction: float = 0.1,
            measurements: Optional[Measurements] = None) -> Generator:
        """Execute the workload mix (a simulation process).

        ``measurements`` lets the caller share the live sample store with
        an observer running alongside the workload (one that polls
        per-window p95 from it mid-run, say).
        """
        if measurements is None:
            measurements = Measurements()
        state = {
            "issued": 0,
            "not_found": 0,
            "warmup_remaining": int(operation_count * warmup_fraction),
        }
        per_thread_rate = (target_throughput / n_threads
                           if target_throughput else None)
        started = self.env.now
        measurements.started_at = started
        workers = [
            self.env.process(
                self._run_worker(operation_count, state, measurements,
                                 per_thread_rate),
                name=f"ycsb-{i}")
            for i in range(n_threads)
        ]
        yield AllOf(self.env, workers)
        measurements.finished_at = self.env.now
        if measurements.columns:
            measurements.started_at = min([
                t - lat for columns in measurements.columns.values()
                for t, lat in zip(*columns)])
        return RunResult.of(self.workload, measurements, state["not_found"],
                            target_throughput)

    def _run_worker(self, operation_count: int, state: dict,
                    measurements: Measurements,
                    per_thread_rate: Optional[float]) -> Generator:
        env = self.env
        # ``env._now``: the ``now`` property is a call, on every operation.
        next_deadline = env._now
        interval = 1.0 / per_thread_rate if per_thread_rate else 0.0
        while state["issued"] < operation_count:
            state["issued"] += 1
            if interval:
                if env._now < next_deadline:
                    yield env.timeout(next_deadline - env._now)
                next_deadline = max(next_deadline + interval,
                                    env._now - 5 * interval)
            warm = state["warmup_remaining"] > 0
            if warm:
                state["warmup_remaining"] -= 1
            op = self.workload.next_operation()
            t0 = env._now
            try:
                result = yield from _execute(self.db, self.workload, op)
            except ModelledFailure as exc:  # else a bug: stop the run
                if not warm:
                    # ``op._value_``: ``op.value`` is two property frames.
                    measurements.record_error(op._value_,
                                              kind=type(exc).__name__,
                                              at=env._now)
                continue
            if (op is OperationType.READ and result is None
                    or (op is OperationType.SCAN
                        or op is OperationType.READ_MODIFY_WRITE)
                    and not result):
                state["not_found"] += 1
            if not warm:
                now = env._now
                measurements.record(op._value_, now, now - t0)


def _execute(db: DbBinding, workload: Workload, op: OperationType,
             read_key: Optional[str] = None) -> Generator:
    """Draw one operation's key and payload, then hand back the
    generator that performs it: the driver's own, so the operation
    costs no generator frame here (read-modify-write alone has one).
    ``read_key`` is a key the caller already drew at dispatch (to probe
    a cache for it, say), so the read targets that key.

    The caller judges found-ness from ``op`` and what the generator
    returned: a write always found its record, a read unless it returned
    ``None``, a scan if it returned rows; a read-modify-write returns
    whether its read found the record.
    """
    size = workload.spec.record_bytes
    if op is OperationType.READ:
        return db.read(read_key if read_key is not None
                       else workload.next_read_key(), size)
    if op is OperationType.UPDATE:
        payload, _ = workload.next_value()
        return db.write(workload.next_read_key(), payload, size)
    if op is OperationType.INSERT:
        payload, _ = workload.next_value()
        return db.write(workload.next_insert_key(), payload, size)
    if op is OperationType.SCAN:
        return db.scan(workload.next_read_key(), workload.next_scan_length(),
                       size)
    return _read_modify_write(db, workload, size)


def _read_modify_write(db: DbBinding, workload: Workload,
                       size: int) -> Generator:
    """Both halves count as one operation (YCSB); returns whether the
    read found the record."""
    key = workload.next_read_key()
    result = yield from db.read(key, size)
    payload, _ = workload.next_value()
    yield from db.write(key, payload, size)
    return result is not None
