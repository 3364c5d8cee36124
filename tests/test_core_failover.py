"""Unit tests for availability metrics (repro.core.failover)."""

import json

import pytest

from repro.core.failover import (
    PROBE_INTERVAL_S, StalenessProbe, build_failover_report)
from repro.sim.kernel import Environment
from repro.ycsb.measurements import Measurements


def steady_measurements(ops_per_bucket=10, buckets=10, outage=()):
    """10 buckets of 1s; ``outage`` buckets complete nothing."""
    m = Measurements()
    m.started_at = 0.0
    m.finished_at = float(buckets)
    for b in range(buckets):
        if b in outage:
            continue
        for i in range(ops_per_bucket):
            m.record("read", b + (i + 1) / (ops_per_bucket + 1), 0.001)
    return m


class TestFailoverReport:
    def test_detection_recovery_and_error_window(self):
        m = steady_measurements(outage=(4, 5))
        m.record_error("read", kind="RpcTimeout", at=4.2)
        m.record_error("read", kind="RpcTimeout", at=4.4)
        m.record_error("update", kind="UnavailableError", at=5.1)
        log = [(4.0, 0, "crash"), (9.0, 0, "restart")]
        report = build_failover_report(m, log, target_throughput=10.0)
        assert report["fault_at_s"] == 4.0
        assert report["cleared_at_s"] == 9.0
        assert report["time_to_detection_s"] == pytest.approx(0.0)
        assert report["time_to_recovery_s"] == pytest.approx(2.0)
        assert report["error_window_s"] == pytest.approx(0.9)
        assert report["errors"] == 3
        assert report["errors_by_type"] == {"RpcTimeout": 2,
                                            "UnavailableError": 1}

    def test_noop_entries_do_not_define_the_fault_window(self):
        m = steady_measurements()
        log = [(3.0, 0, "crash-noop"), (4.0, 0, "crash"),
               (9.0, 0, "restart-noop")]
        report = build_failover_report(m, log, target_throughput=10.0)
        assert report["fault_at_s"] == 4.0
        assert report["cleared_at_s"] is None
        assert report["injections"] == [[3.0, 0, "crash-noop"],
                                        [4.0, 0, "crash"],
                                        [9.0, 0, "restart-noop"]]

    def test_clean_ride_through_reports_no_impact(self):
        m = steady_measurements()
        report = build_failover_report(m, [(4.0, 0, "crash")],
                                       target_throughput=10.0)
        assert report["time_to_detection_s"] is None
        assert report["time_to_recovery_s"] == 0.0
        assert report["errors"] == 0

    def test_dip_without_errors_detected(self):
        # A latency window (HBase reassignment): throughput halves, no
        # client errors.
        m = Measurements()
        m.started_at = 0.0
        m.finished_at = 10.0
        for b in range(10):
            count = 2 if b == 4 else 10
            for i in range(count):
                m.record("read", b + (i + 1) / 11, 0.001)
        report = build_failover_report(m, [(4.0, 0, "crash")])
        assert report["time_to_detection_s"] == pytest.approx(0.0)
        assert report["time_to_recovery_s"] == pytest.approx(1.0)

    def test_closed_loop_ramp_down_not_mistaken_for_recovery(self):
        # Straggler threads stretch the recording past the steady phase:
        # the trailing near-empty bucket must not count as degraded.
        m = Measurements()
        m.started_at = 0.0
        m.finished_at = 9.0
        for b in range(8):
            for i in range(10):
                m.record("read", b + (i + 1) / 11, 0.001)
        m.record("read", 8.5, 0.001)  # the straggler tail
        report = build_failover_report(m, [(2.0, 0, "crash")],
                                       target_throughput=10.0,
                                       expected_end=8.0)
        assert report["time_to_recovery_s"] == 0.0
        assert report["time_to_detection_s"] is None

    def test_stale_reads_counted_from_fault_onward(self):
        m = steady_measurements()
        probe = StalenessProbe(env=None, db=None)
        probe.probe_reads = 4
        probe.stale_reads = 2
        probe.reads = [(1.0, True), (5.0, True), (6.0, False), (7.0, False)]
        report = build_failover_report(m, [(4.0, 0, "crash")],
                                       target_throughput=10.0, probe=probe)
        assert report["stale_reads"] == 1  # only the post-fault one
        assert report["probe_reads"] == 4

    def test_report_is_json_safe(self):
        m = steady_measurements(outage=(4,))
        m.record_error("read", kind="RpcTimeout", at=4.5)
        report = build_failover_report(m, [(4.0, 1, "crash")],
                                       target_throughput=10.0)
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped == report

    def test_no_faults_in_log(self):
        m = steady_measurements()
        report = build_failover_report(m, [])
        assert report["fault_at_s"] is None
        assert report["time_to_recovery_s"] == 0.0


class FakeDb:
    """Deterministic binding for probe tests."""

    def __init__(self, env):
        self.env = env
        self.stored = 0
        self.lag = 0  # read returns ``stored - lag`` (stale when > 0)

    def write(self, key, value, size):
        yield self.env.timeout(0.001)
        self.stored = value

    def read(self, key, size):
        yield self.env.timeout(0.001)
        if self.stored - self.lag <= 0:
            return None
        return (self.stored - self.lag, 0.0)


class TestStalenessProbe:
    """Times in probe rounds of ``PROBE_INTERVAL_S``."""

    def test_healthy_store_never_stale(self):
        env = Environment()
        db = FakeDb(env)
        probe = StalenessProbe(env, db)
        env.process(probe.run(), name="probe")
        env.run(until=20 * PROBE_INTERVAL_S)
        assert probe.probe_reads > 10
        assert probe.stale_reads == 0

    def test_lagging_store_counts_stale_reads(self):
        env = Environment()
        db = FakeDb(env)
        probe = StalenessProbe(env, db)
        env.process(probe.run(), name="probe")
        lag_from = 10 * PROBE_INTERVAL_S
        env.run(until=lag_from)
        db.lag = 1  # every read now trails the acknowledged write
        env.run(until=2 * lag_from)
        assert probe.stale_reads > 0
        assert probe.stale_since(lag_from) == probe.stale_reads

    def test_stop_halts_the_loop(self):
        env = Environment()
        db = FakeDb(env)
        probe = StalenessProbe(env, db)
        env.process(probe.run(), name="probe")
        env.run(until=10 * PROBE_INTERVAL_S)
        probe.stop()
        env.run(until=15 * PROBE_INTERVAL_S)
        count = probe.probe_reads
        env.run(until=30 * PROBE_INTERVAL_S)
        assert probe.probe_reads == count