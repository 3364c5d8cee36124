"""Unit tests for latency measurement."""

import pytest

from repro.ycsb.measurements import LatencyStats, Measurements, percentile


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_median_of_odd(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_p99_near_max(self):
        values = sorted(float(i) for i in range(100))
        assert percentile(values, 0.99) == 98.0

    def test_nearest_rank_pinned_n1(self):
        # ceil(f * 1) - 1 == 0 for every fraction: the only sample.
        values = [3.0]
        assert percentile(values, 0.50) == 3.0
        assert percentile(values, 0.95) == 3.0
        assert percentile(values, 0.99) == 3.0

    def test_nearest_rank_pinned_n4(self):
        values = [1.0, 2.0, 3.0, 4.0]
        # Median of 4: ceil(0.5 * 4) - 1 = 1 -> the second sample (the
        # banker's-rounding formula misranked this as the third).
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.95) == 4.0
        assert percentile(values, 0.99) == 4.0

    def test_nearest_rank_pinned_n100(self):
        values = [float(i) for i in range(1, 101)]
        # ceil(0.5 * 100) - 1 = 49 -> the 50th sample, value 50.0
        # (round(0.5 * 99) = 50 previously returned the 51st).
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0

    def test_nearest_rank_pinned_n101(self):
        values = [float(i) for i in range(1, 102)]
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.95) == 96.0
        assert percentile(values, 0.99) == 100.0

    def test_p99_below_max_from_n100(self):
        # p99 must stop pinning to the maximum once n reaches 100.
        values = [0.0] * 99 + [1000.0]
        assert percentile(values, 0.99) == 0.0


class TestMeasurements:
    def test_record_and_stats(self):
        m = Measurements()
        for i, latency in enumerate([0.001, 0.002, 0.003]):
            m.record("read", float(i), latency)
        stats = m.stats("read")
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.002)
        assert stats.minimum == 0.001 and stats.maximum == 0.003
        assert stats.mean_ms == pytest.approx(2.0)

    def test_unknown_op_empty_stats(self):
        stats = Measurements().stats("scan")
        assert stats.count == 0 and stats.mean == 0.0

    def test_errors_tracked_separately(self):
        m = Measurements()
        m.record_error("update")
        m.record_error("update")
        assert m.stats("update").errors == 2
        assert m.total_errors == 2

    def test_throughput(self):
        m = Measurements()
        m.started_at = 10.0
        m.finished_at = 20.0
        for i in range(50):
            m.record("read", 10.0 + i * 0.2, 0.001)
        assert m.throughput == pytest.approx(5.0)

    def test_throughput_zero_without_window(self):
        assert Measurements().throughput == 0.0

    def test_overall_merges_ops(self):
        m = Measurements()
        m.record("read", 1.0, 0.001)
        m.record("update", 2.0, 0.003)
        overall = m.overall_stats()
        assert overall.count == 2
        assert overall.mean == pytest.approx(0.002)

    def test_timeline_buckets(self):
        m = Measurements()
        for t in (0.1, 0.2, 1.5, 2.9):
            m.record("read", t, 0.01)
        timeline = m.timeline(1.0)
        assert [ops for _, ops, _, _, _ in timeline] == [2, 1, 1]

    def test_timeline_bucket_percentiles_nearest_rank(self):
        m = Measurements()
        # One bucket of 100 samples: 99 fast, 1 slow outlier.
        for i in range(99):
            m.record("read", i * 0.001, 0.001)
        m.record("read", 0.099, 1.0)
        ((_, ops, mean, p95, p99),) = m.timeline(1.0)
        assert ops == 100
        latencies = sorted([0.001] * 99 + [1.0])
        assert p95 == percentile(latencies, 0.95) == 0.001
        assert p99 == percentile(latencies, 0.99) == 0.001
        assert mean == pytest.approx(sum(latencies) / 100)

    def test_timeline_empty_bucket_zero_percentiles(self):
        m = Measurements()
        m.record("read", 0.5, 0.01)
        m.record("read", 2.5, 0.03)  # bucket [1, 2) is empty
        timeline = m.timeline(1.0)
        assert timeline[1] == (1.0, 0, 0.0, 0.0, 0.0)

    def test_timeline_invalid_bucket(self):
        with pytest.raises(ValueError):
            Measurements().timeline(0)

    def test_empty_latency_stats(self):
        stats = LatencyStats.empty()
        assert stats.count == 0 and stats.p99_ms == 0.0


class TestErrorAttribution:
    def test_error_kinds_counted(self):
        m = Measurements()
        m.record_error("read", kind="RpcTimeout", at=1.0)
        m.record_error("read", kind="RpcTimeout", at=2.0)
        m.record_error("update", kind="UnavailableError", at=3.0)
        assert m.errors_by_type == {"RpcTimeout": 2, "UnavailableError": 1}
        assert m.error_events == [(1.0, "read", "RpcTimeout"),
                                  (2.0, "read", "RpcTimeout"),
                                  (3.0, "update", "UnavailableError")]
        assert m.total_errors == 3

    def test_legacy_single_arg_still_works(self):
        m = Measurements()
        m.record_error("update")
        assert m.errors == {"update": 1}
        assert m.errors_by_type == {"error": 1}
        assert m.error_events == []  # no timestamp, not placed

    def test_timeline_with_errors_places_error_only_buckets(self):
        m = Measurements()
        m.record("read", 0.5, 0.01)
        m.record("read", 3.5, 0.03)
        # An outage window [1, 3): nothing completes, everything errors.
        m.record_error("read", kind="RpcTimeout", at=1.5)
        m.record_error("read", kind="RpcTimeout", at=2.5)
        timeline = m.timeline_with_errors(1.0)
        assert [(ops, errors) for _, ops, _, errors in timeline] == \
            [(1, 0), (0, 1), (0, 1), (1, 0)]

    def test_timeline_with_errors_zero_fills_to_finish(self):
        m = Measurements()
        m.record("read", 0.5, 0.01)
        m.finished_at = 3.2  # run dragged on with nothing completing
        timeline = m.timeline_with_errors(1.0)
        assert [ops for _, ops, _, _ in timeline] == [1, 0, 0, 0]

    def test_timeline_with_errors_matches_timeline_when_clean(self):
        m = Measurements()
        for t in (0.1, 0.2, 1.5, 2.9):
            m.record("read", t, 0.01)
        with_errors = m.timeline_with_errors(1.0)
        assert [(start, ops) for start, ops, _, _ in with_errors] == \
            [(start, ops) for start, ops, _, _, _ in m.timeline(1.0)]
        assert all(errors == 0 for _, _, _, errors in with_errors)

    def test_timeline_with_errors_invalid_bucket(self):
        with pytest.raises(ValueError):
            Measurements().timeline_with_errors(0)

    def test_timeline_with_errors_empty(self):
        assert Measurements().timeline_with_errors(1.0) == []


class TestOpenLoopAccounting:
    """Offered-load accounting for open-loop runs: every arrival counts
    whether or not it was ever served (the coordinated-omission fix)."""

    def test_offered_counts_every_arrival(self):
        m = Measurements()
        for i in range(5):
            m.record_arrival("read", at=float(i))
        m.record("read", completed_at=5.0, latency=0.01)  # only 1 served
        assert m.offered_total == 5
        assert m.total_ops == 1

    def test_offered_throughput_over_arrival_span(self):
        m = Measurements()
        m.started_at, m.finished_at = 0.0, 100.0  # long drain tail
        for i in range(11):
            m.record_arrival("read", at=float(i))  # 11 arrivals in 10 s
        # The rate is measured first-to-last arrival, not run duration:
        # the drain tail after the last arrival carries no offered load.
        assert m.offered_throughput == pytest.approx(1.1)

    def test_offered_throughput_degenerate_cases(self):
        m = Measurements()
        assert m.offered_throughput == 0.0  # no arrivals
        m.record_arrival("read", at=1.0)
        assert m.offered_throughput == 0.0  # a single arrival has no span
        m.record_arrival("read", at=1.0)
        assert m.offered_throughput == 0.0  # zero-width span

    def test_arrival_bounds_track_extremes(self):
        m = Measurements()
        for at in (3.0, 1.0, 2.0):
            m.record_arrival("read", at=at)
        assert m.first_arrival_at == 1.0
        assert m.last_arrival_at == 3.0

    def test_timeline_by_arrival_charges_the_spike_bucket(self):
        # A request that arrives at t=0.5 and completes at t=9.5 after
        # 9 s of queueing belongs to the t=0 bucket on the arrival axis
        # (the honest one for open-loop runs), but to the t=9 bucket on
        # the completion axis.
        m = Measurements()
        m.record("read", completed_at=9.5, latency=9.0)
        by_arrival = m.timeline(1.0, by="arrival")
        assert by_arrival[0][:2] == (0.0, 1)
        by_completion = m.timeline(1.0)
        assert by_completion[0][:2] == (9.0, 1)

    def test_timeline_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            Measurements().timeline(1.0, by="dequeue")
