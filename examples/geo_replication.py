#!/usr/bin/env python3
"""Geo-distributed replication — the paper's §6 future work, running.

The paper closes by noting that a single rack "cannot form a convincing
testbed for more complicated tests such as geo-read latency test,
partition test and availability test".  This example runs exactly those
three tests on the simulated geo testbed:

1. **Geo-read latency** — the same read issued at LOCAL_QUORUM, QUORUM
   and ALL from a client in Europe, with replicas spread over Europe,
   California and Singapore (NetworkTopologyStrategy 2+2+2).
2. **Partition test** — cut off the Singapore datacenter: LOCAL_QUORUM
   keeps serving, ALL becomes unavailable.
3. **Availability/staleness** — write in Europe at LOCAL_ONE, read in
   (healed) Singapore immediately and after WAN propagation.

Run:  python examples/geo_replication.py
"""

from repro.cassandra.client import CassandraSession
from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel, UnavailableError
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.config import GeoConfig
from repro.cluster.geo import GeoCluster
from repro.cluster.topology import TailDefenseConfig
from repro.core.report import render_table
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


def build():
    env = Environment()
    geo = GeoCluster(env, GeoConfig(
        datacenters=(("eu-west", 5), ("us-west", 5), ("ap-southeast", 5)),
        replication_per_dc=(("eu-west", 2), ("us-west", 2),
                            ("ap-southeast", 2))), RngRegistry(7))
    cassandra = CassandraCluster(
        geo, CassandraConfig(replication=3), StorageSpec(),
        TailDefenseConfig())
    session = CassandraSession(cassandra, cassandra.client_node)
    return env, geo, cassandra, session


def geo_read_latency(env, session) -> None:
    def scenario():
        rows = []
        for cl in (ConsistencyLevel.LOCAL_QUORUM, ConsistencyLevel.QUORUM,
                   ConsistencyLevel.ALL):
            write_lat, read_lat = [], []
            for i in range(60):
                key = key_for_index(i)
                start = env.now
                yield from session.write(key, i, 500, cl=cl)
                write_lat.append(env.now - start)
                start = env.now
                yield from session.read(key, 500, cl=cl)
                read_lat.append(env.now - start)
            rows.append([cl.value,
                         sum(write_lat) / len(write_lat) * 1000,
                         sum(read_lat) / len(read_lat) * 1000])
        return rows

    rows = env.run(until=env.process(scenario()))
    print(render_table(
        ["consistency", "write ms", "read ms"], rows,
        title="1. Geo-read latency (client in eu-west; replicas 2+2+2 "
              "across eu-west / us-west / ap-southeast)"))
    print()


def partition_test(env, geo, session) -> None:
    def scenario():
        singapore = geo.servers_in("ap-southeast")
        for node_id in singapore:
            geo.kill(node_id)
        key = key_for_index(1000)
        outcomes = []
        try:
            start = env.now
            yield from session.write(key, "local", 500,
                                     cl=ConsistencyLevel.LOCAL_QUORUM)
            outcomes.append(["LOCAL_QUORUM write", "OK",
                             f"{(env.now - start) * 1000:.2f} ms"])
        except UnavailableError:
            outcomes.append(["LOCAL_QUORUM write", "UNAVAILABLE", ""])
        try:
            yield from session.write(key, "global", 500,
                                     cl=ConsistencyLevel.ALL)
            outcomes.append(["ALL write", "OK", ""])
        except UnavailableError:
            outcomes.append(["ALL write", "UNAVAILABLE", ""])
        for node_id in singapore:
            geo.restart(node_id)
        return outcomes

    outcomes = env.run(until=env.process(scenario()))
    print(render_table(
        ["operation", "outcome", "latency"], outcomes,
        title="2. Partition test (ap-southeast cut off)"))
    print()


def staleness_test(env, geo, cassandra, session) -> None:
    def scenario():
        key = key_for_index(2000)
        yield from session.write(key, "fresh-from-europe", 500,
                                 cl=ConsistencyLevel.LOCAL_ONE)
        singapore = [r for r in cassandra.replicas_of(key)
                     if geo.datacenter_of(r) == "ap-southeast"]
        immediately = [cassandra.nodes[r].newest_timestamp(key) is not None
                       for r in singapore]
        yield env.timeout(1.0)  # > one-way WAN latency
        later = [cassandra.nodes[r].newest_timestamp(key) is not None
                 for r in singapore]
        return immediately, later

    immediately, later = env.run(until=env.process(scenario()))
    rows = [
        ["right after the LOCAL_ONE ack", f"{sum(immediately)}/{len(immediately)}"],
        ["after WAN propagation (1 s)", f"{sum(later)}/{len(later)}"],
    ]
    print(render_table(
        ["moment", "ap-southeast replicas holding the write"], rows,
        title="3. Staleness: eu-west write at LOCAL_ONE, observed from "
              "ap-southeast"))


def main() -> None:
    env, geo, cassandra, session = build()

    def load():
        for i in range(2000):
            yield from session.write(key_for_index(i), i, 500,
                                     cl=ConsistencyLevel.LOCAL_QUORUM)

    env.run(until=env.process(load()))
    env.run(until=env.now + 3)

    geo_read_latency(env, session)
    partition_test(env, geo, session)
    staleness_test(env, geo, cassandra, session)


if __name__ == "__main__":
    main()
