"""Figure 3 — stress benchmark for consistency (paper §4.3).

Cassandra only, replication factor 3: runtime vs target throughput for
the three consistency rounds — ONE, QUORUM, and "write ALL" (write at
ALL, read at ONE) — across the five Table-1 workloads run in the paper's
order.

Shape assertions (paper findings F6):

- F6b in the *scan short ranges* test all three levels perform closely;
- F6c in the zipfian read/write workloads, consistency ONE performs best
      and the stricter rounds pay for their replica waits — the bigger
      the write proportion, the more visible the spread.

The paper additionally reports ONE losing the *read latest* workload to
QUORUM/ALL (F6a).  This reproduction recovers ONE < write-ALL only in
part (see EXPERIMENTS.md for the analysis), so the read-latest cell is
reported but the strict ordering is asserted only between write-ALL and
QUORUM-vs-ONE spreads.
"""

import pytest
from conftest import run_once

from repro.core.sweep import render_campaign, run_campaign


@pytest.fixture(scope="module")
def sweep_result(bench_scale, benchmark_holder={}):
    return benchmark_holder


def peaks(sweep, workload):
    return {mode: sweep[mode][workload]["peak_throughput"] for mode in sweep}


def test_fig3_consistency_rounds(benchmark, bench_scale, bench_runner,
                                 sweep_result):
    sweep = run_once(benchmark,
                     lambda: run_campaign("fig3", scale=bench_scale.sweep,
                                          runner=bench_runner))
    sweep_result["sweep"] = sweep
    print()
    print(render_campaign("fig3", sweep))

    # F6b: scan workload is insensitive to the consistency level.
    scan = peaks(sweep, "scan_short_ranges")
    assert max(scan.values()) < min(scan.values()) * 1.8

    # F6c: consistency ONE wins the zipfian read/write workloads.
    for workload in ("read_mostly", "read_update", "read_modify_write"):
        per_mode = peaks(sweep, workload)
        assert per_mode["ONE"] >= max(per_mode.values()) * 0.85, \
            (workload, per_mode)

    # F6c: the spread between ONE and the strictest round grows with the
    # write proportion (read & update 50 % writes vs read mostly 5 %).
    def spread(workload):
        per_mode = peaks(sweep, workload)
        strictest = min(per_mode["QUORUM"], per_mode["write ALL"])
        return per_mode["ONE"] / strictest

    assert spread("read_update") > spread("read_mostly") * 0.9


def test_fig3_runtime_capped_by_target(bench_scale, sweep_result):
    """Runtime throughput never meaningfully exceeds the offered target
    (the YCSB throttle is a cap, not a hint)."""
    sweep = sweep_result.get("sweep")
    if sweep is None:
        pytest.skip("consistency sweep did not run")
    for per_workload in sweep.values():
        for cell in per_workload.values():
            for target, runtime in cell["series"]:
                assert runtime <= target * 1.15
