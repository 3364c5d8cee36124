"""Figure 1 — micro benchmark for replication (paper §4.1).

Atomic update/read/insert/scan latency vs replication factor for HBase
and Cassandra, on an unsaturated testbed with tiny records.

Shape assertions (the paper's findings):

- F1  HBase read/scan latency is flat in RF.
- F2  HBase insert/update latency shows no dramatic change (in-memory
      pipeline replication).
- F3  Cassandra insert/update latency is flat in RF (consistency ONE).
- F4  Cassandra read/scan latency climbs steeply with RF (read-repair
      fan-out + per-node data growth).
"""

import pytest
from conftest import run_once

from repro.core.sweep import render_campaign, run_campaign


def curve(sweep, op):
    return [sweep[rf][op]["mean_ms"] for rf in sorted(sweep)]


@pytest.fixture(scope="module")
def sweeps(bench_scale):
    return {}


def _run(db, bench_scale, bench_runner, benchmark, sweeps):
    result = run_once(benchmark, lambda: run_campaign(
        "fig1", db, bench_scale.sweep, runner=bench_runner,
        rfs=bench_scale.replication_factors))
    sweeps[db] = result
    print()
    print(render_campaign("fig1", result, db))
    return result


def test_fig1_hbase(benchmark, bench_scale, bench_runner, sweeps):
    sweep = _run("hbase", bench_scale, bench_runner, benchmark, sweeps)
    reads = curve(sweep, "read")
    scans = curve(sweep, "scan")
    updates = curve(sweep, "update")
    # F1: flat reads/scans — max within 60% of min (noise allowance).
    assert max(reads) < min(reads) * 1.6
    assert max(scans) < min(scans) * 1.6
    # F2: writes stay in-memory cheap; even at RF=max the added latency
    # is bounded by a few pipeline hops (< 1 ms), no knee anywhere.
    assert updates[-1] - updates[0] < 1.0


def test_fig1_cassandra(benchmark, bench_scale, bench_runner, sweeps):
    sweep = _run("cassandra", bench_scale, bench_runner, benchmark, sweeps)
    updates = curve(sweep, "update")
    inserts = curve(sweep, "insert")
    reads = curve(sweep, "read")
    # F3: flat writes at consistency ONE.
    assert max(updates) < min(updates) * 1.5
    assert max(inserts) < min(inserts) * 1.5
    # F4: reads climb steeply from RF=1 to RF=max.
    assert reads[-1] > reads[0] * 2.0


def test_fig1_cross_db_contrast(bench_scale, sweeps):
    """The headline contrast: Cassandra's read curve grows, HBase's does
    not (single-owner reads)."""
    if "hbase" not in sweeps or "cassandra" not in sweeps:
        pytest.skip("per-db sweeps did not run")
    hbase_growth = (curve(sweeps["hbase"], "read")[-1]
                    / curve(sweeps["hbase"], "read")[0])
    cassandra_growth = (curve(sweeps["cassandra"], "read")[-1]
                        / curve(sweeps["cassandra"], "read")[0])
    assert cassandra_growth > hbase_growth * 1.5
