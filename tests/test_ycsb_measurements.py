"""Unit tests for latency measurement."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import ElasticityConfig
from repro.cluster.elasticity import ScaleEngine
from repro.sim.kernel import Environment
from repro.ycsb.measurements import (
    Measurements, mean, percentile, summarize)


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

    def test_stats_see_samples_recorded_after_an_earlier_call(self):
        m = Measurements()
        for latency in (0.004, 0.001):
            m.record("read", 1.0, latency)
        assert m.stats("read").maximum == 0.004
        for latency in (0.002, 0.009):
            m.record("read", 2.0, latency)
        stats = m.stats("read")
        assert (stats.count, stats.minimum, stats.p50, stats.maximum) == \
            (4, 0.001, 0.002, 0.009)

    def test_empty_latency_stats(self):
        stats = Measurements().overall_stats()
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
        # Completions at 0.1 and 0.2, 1.5, 2.9: buckets [0,1), [1,2), [2,3).
        assert [(start, ops) for start, ops, _, _ in with_errors] == \
            [(0.0, 2), (1.0, 1), (2.0, 1)]
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


class TupleReference:
    """The sample store as a list of (completion time, latency) tuples
    per operation type, with the readers written against it."""

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, float]]] = {}

    def record(self, op: str, completed_at: float, latency: float) -> None:
        self.samples.setdefault(op, []).append((completed_at, latency))

    def stats(self, op: str, errors: int):
        return summarize(sorted(lat for _, lat in self.samples.get(op, [])),
                         errors)

    def overall_stats(self, errors: int):
        return summarize(sorted(lat for samples in self.samples.values()
                                for _, lat in samples), errors)

    def total_ops(self) -> int:
        return sum(len(samples) for samples in self.samples.values())

    def window_p95_ms(self, cut: float):
        window = sorted(lat for samples in self.samples.values()
                        for t, lat in samples if t > cut)
        return summarize(window, 0).p95 * 1000.0 if window else None

    def timeline(self, bucket_s: float, error_times: list[float],
                 finished_at: float):
        samples = sorted(sample for samples in self.samples.values()
                         for sample in samples)
        errors = sorted(error_times)
        stamps = [t for t, _ in samples] + errors
        if not stamps:
            return []
        first, last = min(stamps), max(stamps + [finished_at])
        out = []
        start = (first // bucket_s) * bucket_s
        while start <= last:
            end = start + bucket_s
            lats = [lat for t, lat in samples if start <= t < end]
            n_errors = sum(1 for t in errors if start <= t < end)
            out.append((start, len(lats), mean(lats) if lats else 0.0,
                        n_errors))
            start = end
        return out


OPS = ("read", "update", "scan")
#: (op, time since the previous event, latency, an error instead).
EVENTS = st.lists(
    st.tuples(st.sampled_from(OPS),
              st.floats(min_value=0.0, max_value=1.5),
              st.floats(min_value=0.0, max_value=0.4),
              st.booleans()),
    max_size=60)


@pytest.mark.hashseed
class TestColumnsEqualTuples:
    """The two ``array('d')`` columns per operation type answer every
    reader exactly as the (time, latency) tuples they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(events=EVENTS,
           bucket_s=st.sampled_from([0.1, 0.25, 1.0, 3.0]),
           cut=st.floats(min_value=0.0, max_value=20.0))
    def test_readers_match_a_tuple_reference(self, events, bucket_s, cut):
        m, ref = Measurements(), TupleReference()
        t = 0.0
        error_times = []
        for op, dt, latency, failed in events:
            t += dt
            if failed:
                m.record_error(op, kind="RpcTimeout", at=t)
                error_times.append(t)
            else:
                m.record(op, t, latency)
                ref.record(op, t, latency)
        m.started_at, m.finished_at = 0.0, t + 0.5
        errors = len(error_times)
        for op in OPS:
            assert m.stats(op) == ref.stats(op, m.errors.get(op, 0))
        assert m.overall_stats() == ref.overall_stats(errors)
        assert m.total_ops == ref.total_ops()
        assert m.throughput == ref.total_ops() / (t + 0.5)
        assert m.timeline_with_errors(bucket_s) == \
            ref.timeline(bucket_s, error_times, t + 0.5)
        engine = ScaleEngine(Environment(), None,
                             ElasticityConfig(mode="static"), measurements=m)
        assert engine._window_p95_ms(cut) == ref.window_p95_ms(cut)

    def test_a_sample_costs_under_forty_bytes(self):
        """Two unboxed doubles and the arrays' growth slack: a boxed
        (time, latency) tuple in a list held 112 bytes."""
        m = Measurements()
        record = m.record
        m.record("read", 0.0, 0.0)
        m.record("update", 0.0, 0.0)
        samples = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = 0.0
            for i in range(samples):
                t += 0.0001
                record("read" if i % 3 else "update", t,
                       0.001 + (i % 97) * 1e-6)
            per_sample = (tracemalloc.get_traced_memory()[0] - before) / samples
        finally:
            tracemalloc.stop()
        assert m.total_ops == samples + 2
        assert per_sample < 40, f"{per_sample:.1f} B per sample"

    def test_a_report_leaves_no_sorted_copy_behind(self):
        """``stats`` and ``overall_stats`` sort per request: after a
        report the run still holds only its columns, not a sorted list
        of boxed floats (32 more bytes a sample) beside them."""
        samples = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = Measurements()
            for i in range(samples):
                m.record("read" if i % 3 else "update", i * 1e-4,
                         0.001 + (i % 97) * 1e-6)
            for op in ("read", "update"):
                m.stats(op)
            assert m.overall_stats().count == samples
            per_sample = (tracemalloc.get_traced_memory()[0] - before) / samples
        finally:
            tracemalloc.stop()
        assert per_sample < 24, f"{per_sample:.1f} B per sample"
