"""A replica verb runs the same handler whoever coordinates it.

The coordinator reaches a replica over the wire, or — when the replica
is its own node — through ``call_local``; either way the handler is the
one registered for the verb in the replica node's ``handlers`` table.
A handler wrapped in that table sees both paths.
"""

import pytest

from repro.cassandra.config import CassandraConfig
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.keyspace import key_for_index
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec

pytestmark = pytest.mark.hashseed

KEY = key_for_index(5)
QUORUM = ConsistencyLevel.QUORUM.value


def _write(coordinator, env):
    return coordinator.handle_write((KEY, "value", 100, env.now, QUORUM))


def _read(coordinator, env):
    return coordinator.handle_read((KEY, QUORUM, 100))


def _scan(coordinator, env):
    return coordinator.handle_scan((KEY, 5, QUORUM, 100))


#: verb -> (index of the wrapped replica in the key's placement, the
#: request that sends the verb there).  A QUORUM read at RF 3 sends the
#: data read to the first replica and a digest read to the second; a
#: scan goes to the first replica alone.
VERBS = {
    "c.mutate": (0, _write),
    "c.read_data": (0, _read),
    "c.read_digest": (1, _read),
    "c.scan": (0, _scan),
}


@pytest.mark.parametrize("pooled", [False, True], ids=["unbounded", "pooled"])
@pytest.mark.parametrize("verb", list(VERBS))
def test_local_and_remote_calls_reach_the_registered_handler(verb, pooled):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=6), RngRegistry(99))
    bounds = {"handler_slots": 2, "max_handler_queue": 4} if pooled else {}
    cassandra = CassandraCluster(
        cluster, CassandraConfig(replication=3, read_repair_chance=0.0),
        StorageSpec(), TailDefenseConfig(**bounds))
    replicas = cassandra.replicas_of(KEY)
    index, request = VERBS[verb]
    replica = cassandra.nodes[replicas[index]]
    outsider = next(node for node_id, node in sorted(cassandra.nodes.items())
                    if node_id not in replicas)
    handlers = replica.node.handlers
    registered = handlers[verb]
    seen = []

    def counting(payload):
        seen.append(payload)
        return registered(payload)

    def scenario():
        yield _write(replica.coordinator, env)
        handlers[verb] = counting
        yield request(replica.coordinator, env)   # the replica's own node
        local = len(seen)
        yield request(outsider.coordinator, env)  # over the wire
        return local

    local = env.run(until=env.process(scenario()))
    assert (local, len(seen)) == (1, 2)
