"""Workload definitions — Table 1 of the paper plus the micro workloads.

The stress workloads (paper §3.3, Table 1):

========================  ==================  =========================  ============
Workload                  Typical usage       Operations                 Distribution
========================  ==================  =========================  ============
``read_mostly``           online tagging      read/update 95/5           zipfian
``read_latest``           feeds reading       read/insert 80/20          latest
``read_update``           shopping cart       read/update 50/50          zipfian
``read_modify_write``     user profile        read/RMW 50/50             zipfian
``scan_short_ranges``     topic retrieving    scan/insert 95/5           zipfian
========================  ==================  =========================  ============

The micro workloads (§3.3, §4.1) are single-operation workloads over tiny
records, used to measure the atomic insert/read/update/scan costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.keyspace import key_for_index
from repro.ycsb.generators import (
    CounterGenerator,
    DiscreteGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)

__all__ = ["MICRO_WORKLOADS", "OperationType", "STRESS_WORKLOADS",
           "Workload", "WorkloadSpec"]


class OperationType(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"
    READ_MODIFY_WRITE = "read_modify_write"


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one workload mix."""

    name: str
    #: Operation mix, fractions summing to 1.
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    read_modify_write_proportion: float = 0.0
    #: "zipfian" | "latest" — how read/update keys are chosen.
    request_distribution: str = "zipfian"
    #: Value payload size (paper: 1000 B stress, tiny micro records).
    record_bytes: int = 1000
    max_scan_length: int = 50
    #: Table 1's "typical usage" column.
    typical_usage: str = ""

    def __post_init__(self) -> None:
        total = (self.read_proportion + self.update_proportion
                 + self.insert_proportion + self.scan_proportion
                 + self.read_modify_write_proportion)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: proportions sum to {total}, not 1")
        if self.request_distribution not in ("zipfian", "latest"):
            raise ValueError(
                f"unknown request distribution {self.request_distribution!r}")


class Workload:
    """Runtime state: key generators bound to a record population."""

    def __init__(self, spec: WorkloadSpec, record_count: int, rng) -> None:
        if record_count < 1:
            raise ValueError("record_count must be >= 1")
        self.spec = spec
        self.record_count = record_count
        self.insert_counter = CounterGenerator(start=record_count)
        self._op_chooser = DiscreteGenerator(
            [(OperationType.READ, spec.read_proportion),
             (OperationType.UPDATE, spec.update_proportion),
             (OperationType.INSERT, spec.insert_proportion),
             (OperationType.SCAN, spec.scan_proportion),
             (OperationType.READ_MODIFY_WRITE,
              spec.read_modify_write_proportion)],
            rng)
        self._zipfian = ScrambledZipfianGenerator(record_count, rng)
        self._latest = LatestGenerator(self.insert_counter, rng)
        self._scan_len = UniformGenerator(1, spec.max_scan_length, rng)
        self._op_sequence = 0
        #: Draws the next operation type (the chooser's own ``next``).
        self.next_operation: Callable[[], OperationType] = \
            self._op_chooser.next

    # -- choices ---------------------------------------------------------

    def next_read_index(self) -> int:
        """Record index for a read/update/scan-start/RMW target."""
        if self.spec.request_distribution == "latest":
            return self._latest.next()
        # Zipfian over everything inserted so far (hot heads scrambled):
        # up to the counter's next value, never below the loaded records.
        total = self.insert_counter._next
        if total < self.record_count:
            total = self.record_count
        return self._zipfian.next_below(total)

    def next_read_key(self) -> str:
        return key_for_index(self.next_read_index())

    def next_insert_key(self) -> str:
        return key_for_index(self.insert_counter.next())

    def next_scan_length(self) -> int:
        return self._scan_len.next()

    def next_value(self) -> tuple[int, int]:
        """(payload, size): payload is a unique op sequence number so
        staleness probes can tell record versions apart."""
        self._op_sequence += 1
        return self._op_sequence, self.spec.record_bytes


def _stress(name: str, usage: str, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, typical_usage=usage, record_bytes=1000,
                        **kwargs)


#: Table 1 — the five stress workloads.
STRESS_WORKLOADS: dict[str, WorkloadSpec] = {
    "read_mostly": _stress(
        "read_mostly", "Online tagging",
        read_proportion=0.95, update_proportion=0.05,
        request_distribution="zipfian"),
    "read_latest": _stress(
        "read_latest", "Feeds reading",
        read_proportion=0.80, insert_proportion=0.20,
        request_distribution="latest"),
    "read_update": _stress(
        "read_update", "Online shopping cart",
        read_proportion=0.50, update_proportion=0.50,
        request_distribution="zipfian"),
    "read_modify_write": _stress(
        "read_modify_write", "User profile",
        read_proportion=0.50, read_modify_write_proportion=0.50,
        request_distribution="zipfian"),
    "scan_short_ranges": _stress(
        "scan_short_ranges", "Topic retrieving",
        scan_proportion=0.95, insert_proportion=0.05,
        request_distribution="zipfian", max_scan_length=20),
}

#: §4.1 — single-operation micro workloads over tiny records.
MICRO_WORKLOADS: dict[str, WorkloadSpec] = {
    "update": WorkloadSpec(name="micro_update", update_proportion=1.0,
                           record_bytes=64, request_distribution="zipfian",
                           typical_usage="atomic update"),
    "read": WorkloadSpec(name="micro_read", read_proportion=1.0,
                         record_bytes=64, request_distribution="zipfian",
                         typical_usage="atomic read"),
    "insert": WorkloadSpec(name="micro_insert", insert_proportion=1.0,
                           record_bytes=64, typical_usage="atomic insert"),
    "scan": WorkloadSpec(name="micro_scan", scan_proportion=1.0,
                         record_bytes=64, max_scan_length=20,
                         request_distribution="zipfian",
                         typical_usage="atomic scan"),
}
