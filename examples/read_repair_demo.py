#!/usr/bin/env python3
"""Read repair under the microscope.

The paper's most interesting Cassandra findings (§4.1 F4 and §4.3 F6)
both come down to read repair.  This example makes the mechanism visible:

1. Write a row at consistency ONE — the coordinator acks after one
   replica, the others catch up asynchronously.
2. Freeze the moment: inspect each replica's newest timestamp directly.
3. Read with ``read_repair_chance = 1.0`` and watch the digest mismatch
   trigger a reconcile + repair mutations.
4. Compare the cost of reads as repair fires more often (chance 0 / 0.1
   / 1.0) and against QUORUM, where digest comparison blocks the read.

Run:  python examples/read_repair_demo.py
"""

from repro.cassandra.consistency import ConsistencyLevel
from repro.core.config import CassandraConfig, ExperimentConfig
from repro.core.experiment import ExperimentSession
from repro.core.report import render_table
from repro.keyspace import key_for_index
from repro.sim.kernel import AllOf
from repro.ycsb.workload import STRESS_WORKLOADS


def build(read_repair_chance: float, blocking: bool, seed: int = 7):
    """Deploy through the shared config path (same as the CLI campaigns),
    overriding only the read-repair knobs under study."""
    config = ExperimentConfig(
        engine=CassandraConfig(replication=3,
                               read_repair_chance=read_repair_chance,
                               blocking_read_repair=blocking),
        workload=STRESS_WORKLOADS["read_mostly"],
        record_count=1_000, operation_count=1_000,
        n_nodes=8, seed=seed)
    experiment = ExperimentSession(config)
    return experiment.env, experiment.deployment, experiment.client


def show_divergence_and_repair() -> None:
    env, cassandra, session = build(read_repair_chance=1.0, blocking=True)
    key = key_for_index(42)
    replicas = cassandra.replicas_of(key)

    def scenario():
        yield from session.write(key, "v1", 1000)
        yield env.timeout(1)
        # Inject divergence: a newer version lands on the main replica
        # only (as if an earlier coordinator died mid-write).
        main = cassandra.nodes[replicas[0]]
        yield main._handle_mutate((key, "v2", 1000, env.now))
        before = [cassandra.nodes[r].newest_timestamp(key) for r in replicas]
        result = yield from session.read(key, 1000)
        yield env.timeout(1)
        after = [cassandra.nodes[r].newest_timestamp(key) for r in replicas]
        return before, result, after

    before, result, after = env.run(until=env.process(scenario()))
    stats = cassandra.total_stats()
    print("Replica newest-version timestamps around one repaired read:")
    rows = [[f"node {r}", f"{b:.6f}", f"{a:.6f}"]
            for r, b, a in zip(replicas, before, after)]
    print(render_table(["replica", "before read", "after read"], rows))
    print(f"read returned {result[0]!r}; "
          f"read_repairs={stats['read_repairs']}, "
          f"repair_mutations={stats['repair_mutations']}")
    print()


def compare_repair_cost() -> None:
    """Concurrent writers + readers on hot keys.

    At QUORUM the digest comparison sits on the read's latency path, so
    a race with an in-flight write forces a *blocking* reconcile; at ONE
    the chance-triggered comparison runs in the background and shows up
    as load + background-repair counters instead.
    """
    rows = []
    for label, chance, read_cl in [
        ("ONE, repair off", 0.0, ConsistencyLevel.ONE),
        ("ONE, chance 0.1 (background)", 0.1, ConsistencyLevel.ONE),
        ("ONE, chance 1.0 (background)", 1.0, ConsistencyLevel.ONE),
        ("QUORUM (digests block)", 0.1, ConsistencyLevel.QUORUM),
    ]:
        env, cassandra, session = build(chance, blocking=True)
        session.read_cl = read_cl
        latencies = []

        def writer():
            for i in range(800):
                yield from session.write(key_for_index(i % 40), i, 1000)

        def reader():
            for i in range(800):
                key = key_for_index((i * 7) % 40)
                start = env.now
                yield from session.read(key, 1000)
                latencies.append(env.now - start)

        writer_proc = env.process(writer())
        reader_proc = env.process(reader())
        env.run(until=AllOf(env, [writer_proc, reader_proc]))
        env.run(until=env.now + 2)  # drain background repairs
        stats = cassandra.total_stats()
        rows.append([label, sum(latencies) / len(latencies) * 1000,
                     stats["read_repairs"], stats["background_repairs"],
                     stats["repair_mutations"]])
    print(render_table(
        ["configuration", "read mean ms", "blocking repairs",
         "background repairs", "repair writes"], rows,
        title="Cost of read repair (RF=3, concurrent writers + readers)"))


def main() -> None:
    show_divergence_and_repair()
    compare_repair_cost()


if __name__ == "__main__":
    main()
