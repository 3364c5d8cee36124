"""Flash-crowd survival campaign (this repo's addition, cf. EXPERIMENTS.md).

Open-loop arrivals (steady / 10x flash crowd / flash crowd on a
gray-degraded replica) against the client-tier defense stacks, from the
naive retrying client ("undefended") to the full breaker + retry budget
+ rate limiter + load leveling + cache-aside composition.

Shape assertions:

- The steady control is clean in every mode: goodput tracks the offered
  rate and nothing is refused.
- The flash crowd collapses undefended goodput (retry amplification:
  retries rival the entire offered load) while the full stack sustains
  at least 2x the undefended goodput through the same spike.
- The full stack's refusals are explicit client-side decisions
  (LoadShed / RateLimited / BreakerOpen), and the cache-aside tier's
  staleness stays priced and bounded by the consistency oracle.
"""

import pytest
from conftest import campaign_scale, run_once

from repro.consistency.oracle import unexpected_violations
from repro.core.sweep import render_campaign, run_campaign


@pytest.fixture(scope="module")
def sweeps(bench_scale):
    return {}


def _run(db, bench_scale, bench_runner, benchmark, sweeps):
    result = run_once(benchmark, lambda: run_campaign(
        "surge", db, campaign_scale("surge", bench_scale),
        runner=bench_runner))
    sweeps[db] = result
    print()
    print(render_campaign("surge", result, db))
    return result


def test_surge_cassandra(benchmark, bench_scale, bench_runner, sweeps):
    sweep = _run("cassandra", bench_scale, bench_runner, benchmark, sweeps)
    for mode, summary in sweep["steady"].items():
        assert summary["errors"] == 0, mode
        assert summary["goodput"] > 0.95 * summary["offered_per_s"], mode
    crowd = sweep["flash_crowd"]
    assert crowd["undefended"]["goodput"] < \
        0.5 * crowd["undefended"]["offered_per_s"]
    assert crowd["full"]["goodput"] >= 2.0 * crowd["undefended"]["goodput"]
    assert set(crowd["full"]["errors_by_type"]) <= \
        {"LoadShed", "RateLimited", "BreakerOpen"}
    # The oracle records outside the cache: staleness is measured (and
    # TTL-bounded), convergence gaps are never tolerated.
    for scenario, modes in sweep.items():
        for mode, summary in modes.items():
            assert unexpected_violations(summary["consistency"]) == 0, \
                (scenario, mode)


def test_surge_hbase(benchmark, bench_scale, bench_runner, sweeps):
    sweep = _run("hbase", bench_scale, bench_runner, benchmark, sweeps)
    # A healthy HBase deployment rides out the plain spike (its driver
    # masks timeouts behind internal retries), so the defenses must not
    # cost goodput there.
    crowd = sweep["flash_crowd"]
    assert crowd["full"]["goodput"] >= 0.95 * crowd["undefended"]["goodput"]
    # The compound failure (spike + slow region server) is where the
    # stack earns its keep: the naive client's p99.9 runs away into
    # multi-second territory while the full stack bounds the tail and
    # sustains a multiple of the undefended goodput.
    compound = sweep["flash_crowd+slow_replica"]
    assert compound["full"]["goodput"] >= \
        1.3 * compound["undefended"]["goodput"]
    assert compound["full"]["p999_ms"] < \
        0.5 * compound["undefended"]["p999_ms"]
