"""Unit tests for workload specs and the runtime workload engine."""

import random
from collections import Counter

import pytest

from repro.keyspace import key_for_index
from repro.ycsb.workload import (
    MICRO_WORKLOADS,
    STRESS_WORKLOADS,
    OperationType,
    Workload,
    WorkloadSpec,
)


class TestWorkloadSpec:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="bad", read_proportion=0.5)

    def test_unknown_distribution_rejected(self):
        # Table 1 and the micro workloads choose keys zipfian or latest.
        for dist in ("gaussian", "uniform", "hotspot"):
            with pytest.raises(ValueError):
                WorkloadSpec(name="bad", read_proportion=1.0,
                             request_distribution=dist)


class TestTable1Definitions:
    """Pin the paper's Table 1 exactly."""

    def test_all_five_workloads_defined(self):
        assert set(STRESS_WORKLOADS) == {
            "read_mostly", "read_latest", "read_update",
            "read_modify_write", "scan_short_ranges"}

    def test_read_mostly(self):
        spec = STRESS_WORKLOADS["read_mostly"]
        assert spec.read_proportion == 0.95
        assert spec.update_proportion == 0.05
        assert spec.request_distribution == "zipfian"
        assert spec.typical_usage == "Online tagging"

    def test_read_latest(self):
        spec = STRESS_WORKLOADS["read_latest"]
        assert spec.read_proportion == 0.80
        assert spec.insert_proportion == 0.20
        assert spec.request_distribution == "latest"
        assert spec.typical_usage == "Feeds reading"

    def test_read_update(self):
        spec = STRESS_WORKLOADS["read_update"]
        assert spec.read_proportion == 0.50
        assert spec.update_proportion == 0.50
        assert spec.typical_usage == "Online shopping cart"

    def test_read_modify_write(self):
        spec = STRESS_WORKLOADS["read_modify_write"]
        assert spec.read_proportion == 0.50
        assert spec.read_modify_write_proportion == 0.50
        assert spec.typical_usage == "User profile"

    def test_scan_short_ranges(self):
        spec = STRESS_WORKLOADS["scan_short_ranges"]
        assert spec.scan_proportion == 0.95
        assert spec.insert_proportion == 0.05
        assert spec.typical_usage == "Topic retrieving"

    def test_stress_records_are_1kb(self):
        assert all(s.record_bytes == 1000 for s in STRESS_WORKLOADS.values())

    def test_micro_workloads_single_operation(self):
        for spec in MICRO_WORKLOADS.values():
            proportions = [spec.read_proportion, spec.update_proportion,
                           spec.insert_proportion, spec.scan_proportion,
                           spec.read_modify_write_proportion]
            assert proportions.count(1.0) == 1


class TestWorkloadRuntime:
    def make(self, name="read_mostly", records=1000, seed=0):
        return Workload(STRESS_WORKLOADS[name], records, random.Random(seed))

    def test_operation_mix_matches_spec(self):
        workload = self.make("read_mostly")
        counts = Counter(workload.next_operation() for _ in range(10_000))
        assert 0.92 < counts[OperationType.READ] / 10_000 < 0.98
        assert 0.02 < counts[OperationType.UPDATE] / 10_000 < 0.08

    def test_insert_keys_are_fresh(self):
        workload = self.make(records=100)
        first = workload.next_insert_key()
        assert first == key_for_index(100)
        assert workload.next_insert_key() == key_for_index(101)

    def test_read_keys_within_population(self):
        workload = self.make(records=500)
        for _ in range(1000):
            index = workload.next_read_index()
            assert 0 <= index < 500

    def test_latest_reads_follow_inserts(self):
        workload = Workload(STRESS_WORKLOADS["read_latest"], 1000,
                            random.Random(1))
        for _ in range(500):
            workload.next_insert_key()
        indexes = [workload.next_read_index() for _ in range(2000)]
        assert max(indexes) > 1000  # reaches the newly inserted tail

    def test_scan_length_bounds(self):
        workload = self.make("scan_short_ranges")
        spec = STRESS_WORKLOADS["scan_short_ranges"]
        lengths = [workload.next_scan_length() for _ in range(500)]
        assert all(1 <= n <= spec.max_scan_length for n in lengths)

    def test_values_unique_and_sized(self):
        workload = self.make()
        a, size_a = workload.next_value()
        b, size_b = workload.next_value()
        assert a != b
        assert size_a == size_b == 1000

    def test_zero_records_rejected(self):
        with pytest.raises(ValueError):
            Workload(STRESS_WORKLOADS["read_mostly"], 0, random.Random(0))
