"""Energy/cost campaign (this repo's addition, cf. EXPERIMENTS.md).

Joules/op and $/Mops across RF x CL x power-management mode, after
BigDataBench's energy extension of YCSB: per-node power ledgers
(CPU/disk/NIC busy-time plus the idle floor) with a power-state
machine (active / P-state / deep sleep, deterministic wake latencies),
priced at $/kWh plus instance-hours.

Shape assertions (the subsystem's contract):

- Stricter consistency burns more joules per op (Cassandra QUORUM vs
  ONE at RF 3 — mostly a utilization story: QUORUM saturates and each
  op carries a larger slice of the fleet's idle power).
- Higher replication burns more joules per op on both stores.
- The energy-aware policy beats the static QUORUM baseline on $/Mops
  and J/op while the oracle confirms it stayed inside the declared
  staleness bound.
"""

import pytest
from conftest import campaign_scale, run_once

from repro.consistency.oracle import unexpected_violations
from repro.core.sweep import render_campaign, run_campaign


@pytest.fixture(scope="module")
def sweeps():
    return {}


def _sweep(benchmark, bench_scale, bench_runner, sweeps, *dbs):
    """Run each store's campaign once per module; later tests time the
    cache hit.  One benchmark call covers every requested store."""
    scale = campaign_scale("energy", bench_scale)

    def compute():
        for db in dbs:
            if db not in sweeps:
                sweeps[db] = run_campaign("energy", db, scale,
                                          runner=bench_runner)
                print()
                print(render_campaign("energy", sweeps[db], db))
        return {db: sweeps[db] for db in dbs}

    return run_once(benchmark, compute), scale


def test_quorum_burns_more_joules_than_one(benchmark, bench_scale,
                                           bench_runner, sweeps):
    result, _ = _sweep(benchmark, bench_scale, bench_runner, sweeps,
                       "cassandra")
    by_cl = result["cassandra"][3]
    assert (by_cl["ONE"]["always_on"]["joules_per_op"]
            < by_cl["QUORUM"]["always_on"]["joules_per_op"])


def test_replication_burns_joules_on_both_stores(benchmark, bench_scale,
                                                 bench_runner, sweeps):
    result, _ = _sweep(benchmark, bench_scale, bench_runner, sweeps,
                       "cassandra", "hbase")
    for db, cl in (("cassandra", "ONE"), ("hbase", "n/a")):
        assert (result[db][1][cl]["always_on"]["joules_per_op"]
                < result[db][3][cl]["always_on"]["joules_per_op"]), db


def test_energy_aware_beats_static_quorum_on_cost(benchmark, bench_scale,
                                                  bench_runner, sweeps):
    sweep_out, scale = _sweep(benchmark, bench_scale, bench_runner, sweeps,
                              "cassandra")
    result = sweep_out["cassandra"]
    quorum = result[3]["QUORUM"]["always_on"]
    aware = result[3]["adaptive"]["energy_aware"]
    assert aware["usd_per_mops"] < quorum["usd_per_mops"]
    assert aware["joules_per_op"] < quorum["joules_per_op"]
    assert aware["consistency"]["max_staleness_lag_s"] \
        <= scale.slo.staleness_s
    assert unexpected_violations(aware["consistency"]) == 0
