"""Open-loop arrival processes: traffic that does not slow down.

The paper's YCSB methodology is closed-loop — every client thread waits
for its previous operation before issuing the next, so offered load
falls automatically whenever the store slows down.  Real serving
traffic does not behave that way: users keep clicking through an
outage, which is precisely what turns a latency blip into a retry-storm
collapse.  This module provides the missing half: deterministic
non-homogeneous Poisson arrival streams (thinning method) plus a
zipf-skewed population of simulated users, all driven off named
:class:`~repro.sim.rng.RngRegistry` streams so a run is bit-identical
no matter which worker process executes it.

All processes yield *absolute offsets in seconds from the stream's
start*; the open-loop client adds its own epoch.  Rates are arrivals
per second.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.ycsb.config import ArrivalConfig
from repro.ycsb.generators import ScrambledZipfianGenerator

__all__ = ["ArrivalProcess", "DiurnalArrivals", "FlashCrowdArrivals",
           "PoissonArrivals", "UserSessions", "make_arrivals"]


class ArrivalProcess:
    """Non-homogeneous Poisson arrivals by Lewis–Shedler thinning.

    Subclasses define the instantaneous rate ``rate_at(t)`` and its
    upper bound ``peak_rate``; candidates are drawn from a homogeneous
    process at the peak rate and accepted with probability
    ``rate_at(t) / peak_rate``.  Every subclass draws exactly one
    exponential and one uniform variate per candidate — including the
    homogeneous case — so switching shapes never perturbs how many
    variates an accepted arrival consumed.
    """

    peak_rate: float = 0.0

    def __init__(self, rng) -> None:
        self._rng = rng

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def times(self) -> Iterator[float]:
        """Unbounded stream of arrival offsets, strictly increasing."""
        peak = self.peak_rate
        if peak <= 0:
            raise ValueError("peak_rate must be positive")
        rng = self._rng
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if rng.random() * peak <= self.rate_at(t):
                yield t


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at a constant rate."""

    def __init__(self, rate: float, rng) -> None:
        super().__init__(rng)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.peak_rate = rate

    def rate_at(self, t: float) -> float:
        return self.rate


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night load: rate oscillates around ``base_rate``.

    ``peak_factor`` is the peak-to-base ratio (peak = base x factor,
    trough = base x (2 - factor), floored at zero), ``period_s`` one
    full day.  The cycle starts at the trough so a short run ramps *up*
    into its busy period.
    """

    def __init__(self, base_rate: float, rng, period_s: float,
                 peak_factor: float) -> None:
        super().__init__(rng)
        if base_rate <= 0 or period_s <= 0:
            raise ValueError("base_rate and period_s must be positive")
        if peak_factor < 1.0:
            raise ValueError("peak_factor must be >= 1")
        self.base_rate = base_rate
        self.period_s = period_s
        self.amplitude = base_rate * (peak_factor - 1.0)
        self.peak_rate = base_rate + self.amplitude

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * (t / self.period_s)
        return max(0.0, self.base_rate - self.amplitude * math.cos(phase))


class FlashCrowdArrivals(ArrivalProcess):
    """Steady traffic with a rectangular spike: the 10x flash crowd.

    Outside ``[spike_at_s, spike_at_s + spike_duration_s)`` the rate is
    ``base_rate``; inside it is ``base_rate * spike_factor``.  The step
    shape is deliberate — the surge campaign wants the worst case (no
    ramp for defenses to adapt during), matching the thundering-herd
    arrivals a cache expiry or a celebrity post produces.
    """

    def __init__(self, base_rate: float, rng, spike_at_s: float,
                 spike_factor: float, spike_duration_s: float) -> None:
        super().__init__(rng)
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if spike_factor < 1.0:
            raise ValueError("spike_factor must be >= 1")
        if spike_at_s < 0 or spike_duration_s < 0:
            raise ValueError("spike window must be non-negative")
        self.base_rate = base_rate
        self.spike_at_s = spike_at_s
        self.spike_factor = spike_factor
        self.spike_duration_s = spike_duration_s
        self.peak_rate = base_rate * spike_factor

    def rate_at(self, t: float) -> float:
        if self.spike_at_s <= t < self.spike_at_s + self.spike_duration_s:
            return self.peak_rate
        return self.base_rate


class UserSessions:
    """Zipf-skewed population of simulated users behind the arrivals.

    Each arrival belongs to one of ``n_users`` users (scrambled-zipfian
    popularity: a small hot set of heavy users, a long tail of
    occasional ones, spread over the id space so hot users are not
    adjacent) and each user maps statically onto one of ``n_tenants``
    tenants — the unit the per-tenant rate limiter meters.  The mapping
    is ``user % n_tenants``: because user popularity is skewed, tenant
    load is skewed too, which is what makes per-tenant limiting a
    meaningful defense rather than a uniform tax.
    """

    def __init__(self, n_users: int, rng, n_tenants: int) -> None:
        if n_users < 1:
            raise ValueError("need at least one user")
        if n_tenants < 1:
            raise ValueError("need at least one tenant")
        self.n_users = n_users
        self.n_tenants = n_tenants
        self._gen = ScrambledZipfianGenerator(n_users, rng)

    def next_user(self) -> int:
        return self._gen.next()

    def tenant_of(self, user: int) -> int:
        return user % self.n_tenants


def make_arrivals(config: ArrivalConfig, rng) -> ArrivalProcess:
    """The arrival process ``config`` names, drawing from ``rng``."""
    if config.process == "poisson":
        return PoissonArrivals(config.rate, rng)
    if config.process == "diurnal":
        return DiurnalArrivals(config.rate, rng, period_s=config.period_s,
                               peak_factor=config.peak_factor)
    return FlashCrowdArrivals(config.rate, rng,
                              spike_at_s=config.spike_at_s,
                              spike_factor=config.spike_factor,
                              spike_duration_s=config.spike_duration_s)
