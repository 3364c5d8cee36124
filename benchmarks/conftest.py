"""Shared scale handling for the benchmark harness.

Every bench honours ``REPRO_BENCH_SCALE``:

- ``quick``    — small clusters/populations; minutes for the whole suite;
  shapes still visible but noisy.
- ``standard`` (default) — the scaled-down defaults from DESIGN.md §6;
  replication sweeps cover RF {1, 2, 3, 6} (endpoints + the paper's knee).
- ``full``     — RF 1..6 and more offered-load points, like the paper's
  six rounds; expect a long run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import pytest

from repro.core.runner import CellRunner
from repro.core.sweep import CAMPAIGNS, Scale

_FIGURES = CAMPAIGNS["fig1"]


@dataclass(frozen=True)
class BenchScale:
    sweep: Scale
    replication_factors: tuple
    name: str


_SCALES = {
    "quick": BenchScale(
        sweep=_FIGURES.quick,
        replication_factors=(1, 3, 6),
        name="quick"),
    "standard": BenchScale(
        sweep=replace(_FIGURES.full, record_count=12_000,
                      operation_count=2_500, n_threads=48,
                      targets=(3_000.0, 9_000.0, 16_000.0, None)),
        replication_factors=(1, 2, 3, 6),
        name="standard"),
    "full": BenchScale(
        sweep=replace(_FIGURES.full, n_threads=48),
        replication_factors=(1, 2, 3, 4, 5, 6),
        name="full"),
}


@pytest.fixture(scope="session")
def bench_scale() -> BenchScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "standard")
    if name not in _SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}")
    return _SCALES[name]


@pytest.fixture(scope="session")
def bench_runner() -> CellRunner:
    """Cell runner for the figure sweeps, configured by environment:

    - ``REPRO_BENCH_JOBS``  — worker processes for sweep cells
      (``0`` = one per CPU core; default ``1`` = serial).
    - ``REPRO_BENCH_CACHE`` — ``1`` to reuse the on-disk cell cache
      (default off: a cached sweep is not a timing measurement).

    Results are bit-identical across all settings; only wall-clock
    changes, so shape assertions hold regardless.
    """
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    cache = os.environ.get("REPRO_BENCH_CACHE", "").lower() in ("1", "true",
                                                                "yes")
    return CellRunner(jobs=jobs, cache=cache)


def campaign_scale(name: str, bench_scale: BenchScale) -> Scale:
    """A non-figure campaign's own scale: its quick one under
    ``REPRO_BENCH_SCALE=quick``, else its full one."""
    campaign = CAMPAIGNS[name]
    return campaign.quick if bench_scale.name == "quick" else campaign.full


def run_once(benchmark, func):
    """Execute ``func`` exactly once under pytest-benchmark timing.

    The sweeps are deterministic simulations — repeating them only
    re-measures the host CPU — so one round is the honest measurement.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
