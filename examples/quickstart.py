#!/usr/bin/env python3
"""Quickstart: run one benchmark cell against each database.

Builds a 16-node simulated rack (15 servers + 1 YCSB client), loads
records, runs the paper's *read mostly* stress workload against HBase and
Cassandra, and prints the YCSB-style summary for each.

Run:  python examples/quickstart.py
"""

from dataclasses import replace

from repro.core.config import default_stress_config
from repro.core.experiment import run_experiment
from repro.core.report import render_table

#: Keep the quickstart snappy; the stress default is 40 k records and
#: 6 k operations.
RECORDS = 8_000
OPERATIONS = 2_000


def main() -> None:
    rows = []
    for db in ("hbase", "cassandra"):
        config = default_stress_config(db, "read_mostly", replication=3)
        config = replace(config, record_count=RECORDS,
                         operation_count=OPERATIONS)

        result = run_experiment(config)

        overall = result.run.overall()
        reads = result.run.stats("read")
        updates = result.run.stats("update")
        rows.append([
            db,
            f"{result.run.throughput:.0f}",
            f"{overall.mean_ms:.2f}",
            f"{overall.p99_ms:.2f}",
            f"{reads.mean_ms:.2f}",
            f"{updates.mean_ms:.2f}",
            f"{result.db_stats['cache_hit_rate']:.2f}",
        ])
        print(f"[{db}] loaded {result.load.records} records in "
              f"{result.load.duration_s:.1f}s simulated, then ran "
              f"{result.run.operations} operations")

    print()
    print(render_table(
        ["db", "ops/s", "mean ms", "p99 ms", "read ms", "update ms",
         "cache hit"],
        rows,
        title="read_mostly (95/5 zipfian), RF=3, 15 servers + 1 client"))


if __name__ == "__main__":
    main()
