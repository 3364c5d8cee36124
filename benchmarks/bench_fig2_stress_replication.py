"""Figure 2 — stress benchmark for replication (paper §4.2).

Peak runtime throughput and the corresponding latency vs replication
factor, for the five Table-1 workloads on both databases, obtained by
sweeping the offered target throughput with a constant thread count.

Shape assertions (the paper's findings):

- F5a runtime throughput is inversely related to latency (closed loop);
- F5b HBase peak throughput/latency change insignificantly with RF;
- F5c Cassandra latency rises / peak throughput falls as RF grows
      (every stress workload is >= 50 % reads).
"""

import statistics

import pytest
from conftest import run_once

from repro.core.sweep import render_campaign, run_campaign


@pytest.fixture(scope="module")
def results(bench_scale):
    return {}


def _run(db, bench_scale, bench_runner, benchmark, results):
    sweep = run_once(benchmark, lambda: run_campaign(
        "fig2", db, bench_scale.sweep, runner=bench_runner,
        rfs=bench_scale.replication_factors))
    results[db] = sweep
    print()
    print(render_campaign("fig2", sweep, db))
    return sweep


def geometric_mean(values):
    return statistics.geometric_mean(values)


def peak_curve(sweep, workload):
    return [sweep[rf][workload]["peak_throughput"] for rf in sorted(sweep)]


def test_fig2_hbase(benchmark, bench_scale, bench_runner, results):
    sweep = _run("hbase", bench_scale, bench_runner, benchmark, results)
    # F5b: across workloads, the geometric-mean peak at RF=max stays
    # within 35 % of RF=1 (no systematic collapse).
    first_rf = min(sweep)
    last_rf = max(sweep)
    ratio = geometric_mean(
        [sweep[last_rf][w]["peak_throughput"]
         / sweep[first_rf][w]["peak_throughput"] for w in sweep[first_rf]])
    assert 0.65 < ratio < 1.5


def test_fig2_cassandra(benchmark, bench_scale, bench_runner, results):
    sweep = _run("cassandra", bench_scale, bench_runner, benchmark, results)
    first_rf = min(sweep)
    last_rf = max(sweep)
    # F5c: peaks fall noticeably with RF (geometric mean across workloads).
    ratio = geometric_mean(
        [sweep[last_rf][w]["peak_throughput"]
         / sweep[first_rf][w]["peak_throughput"] for w in sweep[first_rf]])
    assert ratio < 0.8
    # ...and latency at peak rises for the read-heavy zipfian workloads.
    assert (sweep[last_rf]["read_mostly"]["latency_ms"]
            > sweep[first_rf]["read_mostly"]["latency_ms"])


def test_fig2_closed_loop_inverse_relation(bench_scale, results):
    """F5a: the closed loop obeys Little's law — runtime throughput never
    exceeds threads/latency, and saturated points sit on that curve, so
    any latency increase directly caps the achievable throughput."""
    if not results:
        pytest.skip("per-db sweeps did not run")
    threads = bench_scale.sweep.n_threads
    checked = 0
    for sweep in results.values():
        for per_workload in sweep.values():
            for cell in per_workload.values():
                for target, runtime, mean_ms in cell["per_target"]:
                    if mean_ms <= 0:
                        continue
                    little_cap = threads / (mean_ms / 1000.0)
                    assert runtime <= little_cap * 1.25
                    if runtime < target * 0.9:  # saturated point
                        assert runtime > little_cap * 0.5
                        checked += 1
    assert checked > 0
