#!/usr/bin/env python3
"""Replication sweep: the paper's core question, on one workload.

"How does latency change when we adjust the replication factor?"
Sweeps RF = 1..6 for both databases on atomic reads and writes
(a compact version of Figure 1) and prints the latency curves
side by side.

Run:  python examples/replication_sweep.py
"""

from dataclasses import replace

from repro.core.report import render_table
from repro.core.sweep import CAMPAIGNS, run_campaign

SCALE = replace(CAMPAIGNS["fig1"].full, record_count=6_000,
                operation_count=1_000, n_nodes=12)
REPLICATION_FACTORS = (1, 2, 3, 4, 5, 6)


def main() -> None:
    sweeps = {db: run_campaign("fig1", db, SCALE, rfs=REPLICATION_FACTORS)
              for db in ("hbase", "cassandra")}

    rows = []
    for rf in REPLICATION_FACTORS:
        rows.append([
            rf,
            sweeps["hbase"][rf]["update"]["mean_ms"],
            sweeps["hbase"][rf]["read"]["mean_ms"],
            sweeps["cassandra"][rf]["update"]["mean_ms"],
            sweeps["cassandra"][rf]["read"]["mean_ms"],
        ])
    print(render_table(
        ["RF", "hbase update ms", "hbase read ms",
         "cassandra update ms", "cassandra read ms"],
        rows,
        title="Micro latency vs replication factor (cf. paper Fig. 1)"))

    print()
    print("What to look for (paper §4.1):")
    print(" - HBase reads are flat: one RegionServer owns each row, so")
    print("   extra HDFS replicas never serve reads.")
    print(" - HBase writes rise only mildly: the WAL pipeline replicates")
    print("   in memory; each extra replica is one in-rack hop.")
    print(" - Cassandra writes are flat: consistency ONE acks after the")
    print("   first replica regardless of RF.")
    print(" - Cassandra reads climb with RF: read repair involves every")
    print("   replica, and each node stores (and misses cache on) more data.")


if __name__ == "__main__":
    main()
