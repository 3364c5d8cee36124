"""Tail-latency defense campaign (this repo's addition, cf. EXPERIMENTS.md).

Latency distribution up to p99.9 per defense stack ({none, deadline,
hedge}) under one gray-failed replica and under uniform overload.

Shape assertions:

- Hedging collapses the gray-failure read p99 (>= 2x) at an untouched
  median — it routes around the one slow replica.
- Bounded queues turn overload into explicit ``Overloaded`` sheds
  instead of unbounded latency growth.
- HBase's single-owner regions leave hedging nothing to route around;
  its slow-disk tail is defended by deadlines, not speculation.
"""

import pytest
from conftest import campaign_scale, run_once

from repro.core.sweep import render_campaign, run_campaign


@pytest.fixture(scope="module")
def sweeps(bench_scale):
    return {}


def _run(db, bench_scale, bench_runner, benchmark, sweeps):
    result = run_once(benchmark, lambda: run_campaign(
        "tail", db, campaign_scale("tail", bench_scale),
        runner=bench_runner))
    sweeps[db] = result
    print()
    print(render_campaign("tail", result, db))
    return result


def test_tail_cassandra(benchmark, bench_scale, bench_runner, sweeps):
    sweep = _run("cassandra", bench_scale, bench_runner, benchmark, sweeps)
    slow = sweep["slow_replica"]
    # Hedging routes around the slow replica: p99 at most half the
    # undefended p99, median within 10%.
    assert slow["hedge"]["p99_ms"] <= 0.5 * slow["none"]["p99_ms"]
    assert slow["hedge"]["p50_ms"] < 1.10 * slow["none"]["p50_ms"]
    # Overload + bounded queues: explicit sheds, bounded p99.
    overload = sweep["overload"]
    assert overload["deadline"]["errors_by_type"].get("Overloaded", 0) > 0
    assert overload["deadline"]["p99_ms"] < overload["none"]["p99_ms"]


def test_tail_hbase(benchmark, bench_scale, bench_runner, sweeps):
    sweep = _run("hbase", bench_scale, bench_runner, benchmark, sweeps)
    slow = sweep["slow_replica"]
    # Deadlines cap the single-owner tail (no alternate replica to hedge
    # to): the defended p99 sits well under the undefended one, paid for
    # with explicit DeadlineExceeded errors.
    assert slow["deadline"]["p99_ms"] < 0.7 * slow["none"]["p99_ms"]
    assert slow["deadline"]["errors_by_type"].get("DeadlineExceeded", 0) > 0
