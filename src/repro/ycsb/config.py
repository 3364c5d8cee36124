"""The record an open-loop run takes: :class:`ArrivalConfig`.

It lives apart from :mod:`repro.ycsb.arrivals` so that a cell's config
(:mod:`repro.core.config`) can carry it without compiling the arrival
processes; only a session whose config sets ``arrivals`` imports them,
with the open-loop client that consumes them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ArrivalConfig"]


@dataclass(frozen=True)
class ArrivalConfig:
    """Open-loop arrival stream for one measured run."""

    #: "poisson", "diurnal" or "flash_crowd".
    process: str = "poisson"
    #: Steady (base) arrival rate, requests/s.
    rate: float = 1_000.0
    #: How many arrivals one measured run dispatches.
    max_arrivals: int = 10_000
    #: Simulated-user population behind the arrivals (zipf-skewed).
    n_users: int = 100_000
    #: Tenants the users map onto (the rate limiter's metering unit).
    n_tenants: int = 8
    # Diurnal shape.
    period_s: float = 60.0
    peak_factor: float = 2.0
    # Flash-crowd shape.
    spike_at_s: float = 5.0
    spike_factor: float = 10.0
    spike_duration_s: float = 5.0

    def __post_init__(self) -> None:
        processes = ("poisson", "diurnal", "flash_crowd")
        if self.process not in processes:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"choose from {processes}")
        if self.rate <= 0:
            raise ValueError(f"ArrivalConfig.rate={self.rate}: must be > 0")
        if self.max_arrivals < 1:
            raise ValueError(f"ArrivalConfig.max_arrivals="
                             f"{self.max_arrivals}: must be >= 1")
