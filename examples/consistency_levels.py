#!/usr/bin/env python3
"""Consistency levels: latency cost and staleness, measured directly.

Two probes on the same Cassandra ring (RF = 3):

1. **Latency per level** — insert/read latency at ONE, QUORUM and ALL.
2. **Staleness probe** — write at one consistency level, immediately read
   at another from a different coordinator, and count stale results; the
   R + W > N rule predicts which combinations are safe (cf. Bermbach et
   al., the consistency-measurement work the paper cites in §5).

Run:  python examples/consistency_levels.py
"""

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.core.report import render_table
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec

RF = 3
RECORDS = 3_000
PROBES = 400


def build():
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=10), RngRegistry(2024))
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=RF), StorageSpec(),
        TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node)
    return env, cassandra, session


def measure_latency(env, session, cl):
    def scenario():
        write_lat, read_lat = [], []
        for i in range(PROBES):
            key = key_for_index(i % RECORDS)
            start = env.now
            yield from session.write(key, i, 1000, cl=cl)
            write_lat.append(env.now - start)
            start = env.now
            yield from session.read(key, 1000, cl=cl)
            read_lat.append(env.now - start)
        return (sum(write_lat) / len(write_lat) * 1000,
                sum(read_lat) / len(read_lat) * 1000)

    return env.run(until=env.process(scenario()))


def measure_staleness(env, session, write_cl, read_cl):
    def scenario():
        stale = 0
        for i in range(PROBES):
            key = key_for_index(i % 50)  # hot keys maximize races
            marker = f"probe-{i}"
            yield from session.write(key, marker, 1000, cl=write_cl)
            result = yield from session.read(key, 1000, cl=read_cl)
            if result is None or result[0] != marker:
                stale += 1
        return stale

    return env.run(until=env.process(scenario()))


def main() -> None:
    env, _, session = build()

    def load():
        for i in range(RECORDS):
            yield from session.write(key_for_index(i), i, 1000)

    env.run(until=env.process(load()))

    rows = []
    for cl in (ConsistencyLevel.ONE, ConsistencyLevel.QUORUM,
               ConsistencyLevel.ALL):
        write_ms, read_ms = measure_latency(env, session, cl)
        rows.append([cl.value, write_ms, read_ms])
    print(render_table(["consistency", "write ms", "read ms"], rows,
                       title=f"Latency per consistency level (RF={RF})"))

    print()
    rows = []
    combos = [
        (ConsistencyLevel.ONE, ConsistencyLevel.ONE),
        (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
        (ConsistencyLevel.ALL, ConsistencyLevel.ONE),
        (ConsistencyLevel.ONE, ConsistencyLevel.ALL),
    ]
    for write_cl, read_cl in combos:
        strong = read_cl.is_strong_with(write_cl, RF)
        stale = measure_staleness(env, session, write_cl, read_cl)
        rows.append([write_cl.value, read_cl.value,
                     "yes" if strong else "no", stale, PROBES])
    print(render_table(
        ["write CL", "read CL", "R+W>N", "stale reads", "probes"], rows,
        title="Read-your-writes staleness probe"))
    print()
    print("R+W>N combinations must show 0 stale reads; weaker ones may not.")


if __name__ == "__main__":
    main()
