"""Hard-drive model.

A single spindle served FIFO with priorities.  Three access patterns
matter to the databases built on top:

- **random read** — seek + half-rotation + transfer.  This is the HFile /
  SSTable block read path when the block cache misses.
- **sequential read/write** — transfer only (plus a small track-switch
  settle).  This is the compaction and flush path.
- **buffered append** — WAL / commit-log appends go to the OS page cache
  and cost essentially no disk time; a background flusher writes the
  accumulated dirty bytes sequentially.  This is the mechanism behind the
  paper's finding F2 (HBase write latency flat in the replication factor):
  the HDFS pipeline acks from memory.

Foreground requests (reads) can be prioritized over background work
(flushes, compactions, read-repair writes) via the ``priority`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.kernel import Environment
from repro.sim.resources import Resource

__all__ = ["Disk", "DiskSpec", "FOREGROUND", "BACKGROUND"]

#: Seconds between the background flusher's writes of the dirty bytes.
FLUSH_INTERVAL_S = 1.0

#: Priority for latency-critical accesses (client reads).
FOREGROUND = 0
#: Priority for asynchronous work (flush, compaction, repair).
BACKGROUND = 10


@dataclass(frozen=True)
class DiskSpec:
    """Service-time parameters for a 7.2k-rpm server hard drive."""

    #: Average seek time for a random access (seconds).
    avg_seek_s: float = 0.004
    #: Full platter rotation period; average rotational delay is half.
    rotation_s: float = 0.00833  # 7200 rpm
    #: Sequential transfer bandwidth (bytes/second).
    transfer_bps: float = 140e6
    #: Small settle time charged to sequential accesses (track switches).
    sequential_overhead_s: float = 0.0003
    #: Multiplicative jitter bound: service times are scaled by a factor
    #: drawn uniformly from [1 - jitter, 1 + jitter].
    jitter: float = 0.15

    def random_access_time(self, size: int) -> float:
        """Mean service time of a random read/write of ``size`` bytes."""
        return self.avg_seek_s + self.rotation_s / 2 + size / self.transfer_bps

    def sequential_access_time(self, size: int) -> float:
        """Mean service time of a sequential read/write of ``size`` bytes."""
        return self.sequential_overhead_s + size / self.transfer_bps


class Disk:
    """One spindle: a priority queue of accesses plus a dirty-page buffer
    that a background flusher writes out every :data:`FLUSH_INTERVAL_S`."""

    def __init__(self, env: Environment, spec: DiskSpec, rng) -> None:
        self.env = env
        self.spec = spec
        self._rng = rng
        self._spindle = Resource(env, capacity=1)
        #: Bytes appended through :meth:`append_buffered` not yet on platter.
        self.dirty_bytes = 0
        #: Lifetime counters (for tests and utilization reports).
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_time = 0.0
        #: The owning node's power-state machine (shared instance) when
        #: power management is on; a parked spindle must spin up before
        #: serving, charged as extra access latency.
        self.power = None
        #: Fault-injection hook: service-time multiplier (>= 1).  A
        #: gray-failing disk serves every access, just ``slowdown``-times
        #: slower (the ``slow_disk`` kind of
        #: :class:`repro.cluster.config.FaultSpec`).
        self.slowdown = 1.0
        self._flush_kick = None
        env.process(self._flusher(), name="disk-flusher")

    # -- internal ------------------------------------------------------

    def _jittered(self, mean: float) -> float:
        j = self.spec.jitter
        return mean * self._rng.uniform(1.0 - j, 1.0 + j) if j else mean

    def _access(self, service_time: float, priority: int) -> Generator:
        with self._spindle.request(priority=priority) as req:
            yield req
            penalty = 0.0
            if self.power is not None:
                now = self.env._now
                penalty = self.power.wake_for_work(now) - now
            t = self._jittered(service_time) * self.slowdown
            # Spin-up waits at baseline draw; only real service is
            # priced at the spindle's active watts.
            self.busy_time += t
            yield self.env.timeout(penalty + t)
            if self.power is not None:
                self.power.note_busy(self.env._now)

    # -- public API ------------------------------------------------------

    def read(self, size: int, sequential: bool = False,
             priority: int = FOREGROUND) -> Generator:
        """Read ``size`` bytes from the platter (a simulation process)."""
        self.bytes_read += size
        mean = (self.spec.sequential_access_time(size) if sequential
                else self.spec.random_access_time(size))
        yield from self._access(mean, priority)

    def write(self, size: int, sequential: bool = True,
              priority: int = BACKGROUND) -> Generator:
        """Synchronously write ``size`` bytes to the platter."""
        self.bytes_written += size
        mean = (self.spec.sequential_access_time(size) if sequential
                else self.spec.random_access_time(size))
        yield from self._access(mean, priority)

    def append_buffered(self, size: int) -> None:
        """Append ``size`` bytes to the page cache (no disk time now).

        The background flusher periodically drains the dirty bytes with a
        sequential write, so sustained append traffic does consume disk
        bandwidth — it just does not sit on any request's latency path.
        """
        self.dirty_bytes += size
        if self._flush_kick is not None and not self._flush_kick.triggered:
            self._flush_kick.succeed()

    def _flusher(self) -> Generator:
        from repro.sim.kernel import Event
        while True:
            if not self.dirty_bytes:
                # Park until the next buffered append — an idle disk must
                # not keep the event queue alive forever.
                self._flush_kick = Event(self.env)
                yield self._flush_kick
                self._flush_kick = None
            yield self.env.timeout(FLUSH_INTERVAL_S)
            if self.dirty_bytes:
                size, self.dirty_bytes = self.dirty_bytes, 0
                self.bytes_written += size
                yield from self._access(
                    self.spec.sequential_access_time(size), BACKGROUND)
