"""Open-loop arrival processes: determinism and rate properties.

The surge campaign's bit-identity claim (same summary no matter which
worker process runs a cell) rests on arrivals being a pure function of
the named RNG stream.  These tests pin that, plus the statistical
properties each arrival shape promises: a Poisson stream averages its
rate, a flash crowd concentrates arrivals inside its spike window, a
diurnal cycle peaks mid-period.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry
from repro.ycsb.arrivals import (DiurnalArrivals, FlashCrowdArrivals,
                                 PoissonArrivals, UserSessions, make_arrivals)
from repro.ycsb.config import ArrivalConfig


def _take(process, n):
    times = process.times()
    return [next(times) for _ in range(n)]


class TestDeterminism:
    def test_same_stream_same_times(self):
        a = _take(PoissonArrivals(100.0, RngRegistry(7).stream("arrivals")),
                  500)
        b = _take(PoissonArrivals(100.0, RngRegistry(7).stream("arrivals")),
                  500)
        assert a == b

    def test_different_seed_different_times(self):
        a = _take(PoissonArrivals(100.0, RngRegistry(7).stream("arrivals")),
                  50)
        b = _take(PoissonArrivals(100.0, RngRegistry(8).stream("arrivals")),
                  50)
        assert a != b

    def test_sessions_deterministic(self):
        s1 = UserSessions(1_000_000, RngRegistry(3).stream("sessions"),
                          n_tenants=8)
        s2 = UserSessions(1_000_000, RngRegistry(3).stream("sessions"),
                          n_tenants=8)
        users = [s1.next_user() for _ in range(300)]
        assert users == [s2.next_user() for _ in range(300)]
        assert all(0 <= s1.tenant_of(u) < 8 for u in users)

    @given(seed=st.integers(0, 2**32 - 1),
           rate=st.floats(1.0, 500.0),
           n=st.integers(2, 200))
    @settings(max_examples=30, deadline=None)
    def test_poisson_reruns_bit_identical(self, seed, rate, n):
        a = _take(PoissonArrivals(rate, random.Random(seed)), n)
        b = _take(PoissonArrivals(rate, random.Random(seed)), n)
        assert a == b

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_flash_crowd_reruns_bit_identical(self, seed):
        def build():
            return FlashCrowdArrivals(50.0, random.Random(seed),
                                      spike_at_s=2.0, spike_factor=10.0,
                                      spike_duration_s=3.0)
        assert _take(build(), 300) == _take(build(), 300)


class TestProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_times_strictly_increasing(self, seed):
        times = _take(FlashCrowdArrivals(100.0, random.Random(seed),
                                         spike_at_s=1.0, spike_factor=10.0,
                                         spike_duration_s=5.0), 500)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_poisson_mean_rate(self):
        times = _take(PoissonArrivals(200.0, random.Random(42)), 10_000)
        observed = len(times) / times[-1]
        assert 180.0 <= observed <= 220.0

    def test_flash_crowd_spike_density(self):
        proc = FlashCrowdArrivals(100.0, random.Random(1), spike_at_s=5.0,
                                  spike_factor=10.0, spike_duration_s=5.0)
        times = [t for t in _take(proc, 8_000) if t < 15.0]
        inside = sum(1 for t in times if 5.0 <= t < 10.0)
        outside = len(times) - inside
        # 5 s at 1000/s vs 10 s at 100/s: the spike should hold ~5/6 of
        # the arrivals in the window.
        assert inside > 4 * outside

    def test_diurnal_peaks_mid_period(self):
        proc = DiurnalArrivals(100.0, random.Random(2), period_s=20.0,
                               peak_factor=3.0)
        times = [t for t in _take(proc, 6_000) if t < 20.0]
        trough = sum(1 for t in times if t < 5.0)
        peak = sum(1 for t in times if 7.5 <= t < 12.5)
        assert peak > 2 * trough

    def test_make_arrivals_dispatch(self):
        rng = random.Random(0)
        assert isinstance(make_arrivals(ArrivalConfig(rate=10.0), rng),
                          PoissonArrivals)
        diurnal = make_arrivals(ArrivalConfig(
            process="diurnal", rate=10.0, period_s=7.0, peak_factor=3.0), rng)
        assert isinstance(diurnal, DiurnalArrivals)
        assert (diurnal.period_s, diurnal.peak_rate) == (7.0, 30.0)
        crowd = make_arrivals(ArrivalConfig(
            process="flash_crowd", rate=10.0, spike_at_s=2.0,
            spike_factor=4.0, spike_duration_s=1.5), rng)
        assert isinstance(crowd, FlashCrowdArrivals)
        assert (crowd.spike_at_s, crowd.peak_rate,
                crowd.spike_duration_s) == (2.0, 40.0, 1.5)

    def test_make_arrivals_rejects_unknown(self):
        """An unknown process never reaches ``make_arrivals``: its
        config refuses it."""
        try:
            ArrivalConfig(process="meteor")
        except ValueError as exc:
            assert "meteor" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_invalid_parameters_rejected(self):
        rng = random.Random(0)
        for build in (
                lambda: PoissonArrivals(0.0, rng),
                lambda: DiurnalArrivals(10.0, rng, period_s=0.0,
                                        peak_factor=2.0),
                lambda: DiurnalArrivals(10.0, rng, period_s=60.0,
                                        peak_factor=0.5),
                lambda: FlashCrowdArrivals(10.0, rng, spike_at_s=-1.0,
                                           spike_factor=10.0,
                                           spike_duration_s=5.0),
                lambda: FlashCrowdArrivals(10.0, rng, spike_at_s=1.0,
                                           spike_factor=0.5,
                                           spike_duration_s=5.0),
                lambda: UserSessions(0, rng, n_tenants=8),
        ):
            try:
                build()
            except ValueError:
                pass
            else:
                raise AssertionError("expected ValueError")
