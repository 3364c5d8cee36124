"""Unit tests for the YCSB generator family."""

import math
import random
from collections import Counter

import pytest

from repro.ycsb.generators import (
    CounterGenerator,
    DiscreteGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    zipfian_pmf,
)


class TestCounterGenerator:
    def test_monotonic(self):
        counter = CounterGenerator()
        assert [counter.next() for _ in range(3)] == [0, 1, 2]
        assert counter.last() == 2

    def test_start_offset(self):
        counter = CounterGenerator(start=100)
        assert counter.next() == 100

    def test_last_before_any(self):
        assert CounterGenerator().last() == -1


class TestUniformGenerator:
    def test_bounds_inclusive(self):
        gen = UniformGenerator(5, 9, random.Random(0))
        values = {gen.next() for _ in range(500)}
        assert values == {5, 6, 7, 8, 9}

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            UniformGenerator(5, 4, random.Random(0))


class TestZipfianGenerator:
    def test_values_in_range(self):
        gen = ZipfianGenerator(100, random.Random(1))
        assert all(0 <= gen.next() < 100 for _ in range(2000))

    def test_rank_zero_most_popular(self):
        gen = ZipfianGenerator(1000, random.Random(2))
        counts = Counter(gen.next() for _ in range(20_000))
        assert counts[0] == max(counts.values())

    def test_skew_matches_theory_roughly(self):
        gen = ZipfianGenerator(100, random.Random(3))
        counts = Counter(gen.next() for _ in range(50_000))
        pmf = zipfian_pmf(100)
        # Rank-0 frequency within 25% of the analytic probability.
        assert abs(counts[0] / 50_000 - pmf[0]) < 0.25 * pmf[0]

    def test_single_item(self):
        gen = ZipfianGenerator(1, random.Random(4))
        assert gen.next() == 0

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, random.Random(0))

    @pytest.mark.parametrize("n", [1, 2, 3, 400, 4_000, 5_000, 100_000])
    def test_memoized_zeta_is_the_same_float(self, n):
        theta = ZipfianGenerator.ZIPFIAN_CONSTANT
        # The correctly rounded sum of the terms, in rank order.
        reference = math.fsum(1.0 / (i ** theta) for i in range(1, n + 1))
        uncached = ZipfianGenerator._zeta_static.__wrapped__(n, theta)
        # ``==``, not approx: every draw is ``u * zeta`` compared against
        # fixed thresholds, so one ulp would move a replay digest.
        assert uncached == reference
        assert ZipfianGenerator._zeta_static(n, theta) == reference

    def test_generators_of_one_size_share_one_zeta_sum(self):
        zeta = ZipfianGenerator._zeta_static
        zeta.cache_clear()
        first = ZipfianGenerator(12_345, random.Random(1))
        misses = zeta.cache_info().misses   # n = 12_345 and n = 2
        second = ScrambledZipfianGenerator(12_345, random.Random(2))
        assert zeta.cache_info().misses == misses
        assert second._zipf._zeta == first._zeta
        ZipfianGenerator(12_346, random.Random(3))
        assert zeta.cache_info().misses == misses + 1


class TestScrambledZipfian:
    def test_values_in_range(self):
        gen = ScrambledZipfianGenerator(500, random.Random(5))
        assert all(0 <= gen.next() < 500 for _ in range(2000))

    def test_hot_keys_not_adjacent(self):
        """The defence against the paper's 'local trap': the two hottest
        items should not be neighbouring indexes."""
        gen = ScrambledZipfianGenerator(10_000, random.Random(6))
        counts = Counter(gen.next() for _ in range(30_000))
        top = [item for item, _ in counts.most_common(5)]
        gaps = [abs(a - b) for a, b in zip(top, top[1:])]
        assert min(gaps) > 10

    def test_next_below_bound(self):
        gen = ScrambledZipfianGenerator(1000, random.Random(7))
        assert all(gen.next_below(50) < 50 for _ in range(500))

    def test_deterministic_scramble(self):
        """Same rank always maps to the same item (stable hot set)."""
        a = ScrambledZipfianGenerator(1000, random.Random(8))
        b = ScrambledZipfianGenerator(1000, random.Random(8))
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]


class TestLatestGenerator:
    def test_skews_to_recent(self):
        counter = CounterGenerator()
        for _ in range(1000):
            counter.next()
        gen = LatestGenerator(counter, random.Random(9))
        values = [gen.next() for _ in range(5000)]
        recent = sum(1 for v in values if v > 900)
        assert recent > len(values) * 0.5

    def test_tracks_growing_counter(self):
        counter = CounterGenerator()
        counter.next()
        gen = LatestGenerator(counter, random.Random(10))
        assert gen.next() == 0
        for _ in range(5000):
            counter.next()
        values = [gen.next() for _ in range(2000)]
        assert max(values) > 4000

    def test_never_negative(self):
        counter = CounterGenerator()
        gen = LatestGenerator(counter, random.Random(11))
        assert gen.next() == 0
        counter.next()
        assert all(gen.next() >= 0 for _ in range(100))


class TestDiscreteGenerator:
    def test_proportions_respected(self):
        gen = DiscreteGenerator([("a", 0.8), ("b", 0.2)], random.Random(14))
        counts = Counter(gen.next() for _ in range(10_000))
        assert 0.75 < counts["a"] / 10_000 < 0.85

    def test_zero_weight_never_chosen(self):
        gen = DiscreteGenerator([("a", 1.0), ("b", 0.0)], random.Random(15))
        assert all(gen.next() == "a" for _ in range(1000))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteGenerator([], random.Random(0))
        with pytest.raises(ValueError):
            DiscreteGenerator([("a", -1.0), ("b", 2.0)], random.Random(0))


class TestZipfianFloatEdges:
    """`next()` must honour the [0, n_items) contract even when the
    uniform draw is so close to 1 that ``(eta*u - eta + 1) ** alpha``
    rounds up to exactly 1.0 (regression: values == n_items escaped)."""

    class _FixedRng:
        def __init__(self, values):
            self._values = list(values)

        def random(self):
            return self._values.pop(0)

    def test_u_at_float_edge_clamped(self):
        edges = [1 - 2**-53, 1 - 2**-52, 0.9999999999999999]
        gen = ZipfianGenerator(1000, self._FixedRng(edges))
        for _ in edges:
            assert 0 <= gen.next() < 1000

    def test_u_edge_various_item_counts(self):
        for n in (1, 2, 3, 10, 97, 10_000):
            gen = ZipfianGenerator(n, self._FixedRng([1 - 2**-53]))
            assert 0 <= gen.next() < n

    def test_hypothesis_sweep_to_one(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=300, deadline=None)
        @given(u=st.floats(min_value=0.0, max_value=1.0,
                           exclude_max=True,
                           allow_nan=False, allow_infinity=False),
               n=st.integers(min_value=1, max_value=100_000))
        def check(u, n):
            gen = ZipfianGenerator(n, self._FixedRng([u]))
            assert 0 <= gen.next() < n

        check()

    def test_scrambled_unaffected_by_clamp(self):
        # The scrambled variant masked the bug via %; the clamp must not
        # change its in-range behaviour.
        gen = ScrambledZipfianGenerator(50, self._FixedRng([1 - 2**-53]))
        assert 0 <= gen.next() < 50
