"""Adaptive-consistency campaign (this repo's addition, cf. EXPERIMENTS.md).

Per-request CL policies against the static §4.3 baselines under a
latency/staleness SLO: read-mostly at RF 3, a replica crash early in
each run, hinted handoff throttled so weak reads are provably stale.

Shape assertions (the subsystem's contract):

- StepwisePolicy's read p95 is strictly below static QUORUM's while its
  oracle-checked read-your-writes rate stays within the declared bound.
- Static ONE breaks the declared bound — its RYW rate exceeds the SLO's
  risk rate and its worst provable lag exceeds the staleness bound.
- StalenessBoundPolicy delivers zero staleness violations while still
  beating static QUORUM on p95 (only risk-free reads take the fast
  path).
"""

import pytest
from conftest import campaign_scale, run_once

from repro.core.sweep import render_campaign, run_campaign


def _ryw_rate(summary):
    consistency = summary["consistency"]
    return (consistency["violations_by_kind"]["read_your_writes"]
            / max(1, consistency["reads"]))


@pytest.fixture(scope="module")
def sweeps():
    return {}


def _sweep(benchmark, bench_scale, bench_runner, sweeps):
    """Run the campaign once per module; later tests time the cache hit."""
    scale = campaign_scale("adaptive", bench_scale)

    def compute():
        if "result" not in sweeps:
            sweeps["result"] = run_campaign("adaptive", scale=scale,
                                            runner=bench_runner)
            print()
            print(render_campaign("adaptive", sweeps["result"]))
        return sweeps["result"]

    return run_once(benchmark, compute), scale


def test_adaptive_policies_beat_static_quorum(benchmark, bench_scale,
                                              bench_runner, sweeps):
    result, scale = _sweep(benchmark, bench_scale, bench_runner, sweeps)
    target = scale.targets[0]  # the calibrated load point
    quorum_p95 = result["static-quorum"][target]["decisions"]["read_p95_ms"]
    for policy in ("stepwise", "staleness-bound"):
        summary = result[policy][target]
        assert summary["decisions"]["read_p95_ms"] < quorum_p95
        assert _ryw_rate(summary) <= scale.slo.risk_rate


def test_static_one_breaks_the_declared_bound(benchmark, bench_scale,
                                              bench_runner, sweeps):
    result, scale = _sweep(benchmark, bench_scale, bench_runner, sweeps)
    target = scale.targets[0]
    static_one = result["static-one"][target]
    assert _ryw_rate(static_one) > scale.slo.risk_rate
    assert static_one["consistency"]["max_staleness_lag_s"] \
        > scale.slo.staleness_s


def test_staleness_bound_holds_its_contract(benchmark, bench_scale,
                                            bench_runner, sweeps):
    result, scale = _sweep(benchmark, bench_scale, bench_runner, sweeps)
    for target, summary in result["staleness-bound"].items():
        consistency = summary["consistency"]
        assert consistency["violations_by_kind"]["read_your_writes"] == 0
        assert consistency["violations_by_kind"]["stale_read"] == 0
        assert consistency["max_staleness_lag_s"] \
            <= scale.slo.staleness_s
