"""Kernel events per operation, gated on counters that no host can move.

Every message leg (``Cluster.leg``), every verb's fixed handler CPU and
every LSM read walk costs one kernel event.  These tests keep it so:
ceilings on events per operation for two small cells, the exact event
count and completion instant of one HDFS pipeline write, and — because
fusing stages may move *when* work is booked but never *how much* — the
CPU seconds, NIC bytes and messages a fixed script costs, and the
simulated output of a cache-resident cell, against values recorded from
the commit before the fusion (``6dbf6af``).
"""

from dataclasses import replace

import pytest

from repro.core.config import default_stress_config, scaled_stress_storage
from repro.core.experiment import ExperimentSession, summarize_run
from repro.hdfs.datanode import PACKET_CPU_S, DataNode
from repro.hdfs.pipeline import ACK_BYTES, pipeline_write
from repro.keyspace import key_for_index
from repro.storage.lsm import StorageSpec
from tests.conftest import flat_cluster


def _small_cell(db: str, storage: StorageSpec):
    """RF 3 (Cassandra at ONE/ONE), ``read_update``, fault-free."""
    config = default_stress_config(db, "read_update", replication=3, seed=7)
    return replace(config, record_count=400, operation_count=1_500,
                   n_threads=8, n_nodes=5, settle_s=1.0, storage=storage)


def _run(config, warm_ops=0):
    session = ExperimentSession(config)
    session.load()
    if warm_ops:
        session.warm(operations=warm_ops)
    before = session.env.processed_events
    result = session.run_cell()
    summary = summarize_run(result)
    assert summary["errors"] == 0
    events = session.env.processed_events - before
    return events / config.operation_count, result.throughput, summary


#: Events per operation when the message leg landed (9.51 and 12.08 at
#: ``6dbf6af``); the ceiling is 5 % above.
LANDED_EVENTS_PER_OP = {"cassandra": 7.464, "hbase": 7.578}


@pytest.mark.parametrize("db", sorted(LANDED_EVENTS_PER_OP))
def test_events_per_op_stay_under_the_ceiling(db):
    events_per_op, _, _ = _run(_small_cell(
        db, scaled_stress_storage(400, 1000, 4)))
    assert events_per_op <= 1.05 * LANDED_EVENTS_PER_OP[db]


def test_cache_resident_cell_did_not_move():
    """The benchmark's ``cas_closed_rw`` cell with a block cache larger
    than its data: nothing waits on a disk, so its simulated output
    depends on the transport and CPU model alone, and fewer events must
    not mean another answer.  42,244.9 ops/s and a 1.0052 ms p95 at
    ``6dbf6af`` (seed 1); the cell's own spread across seeds is 0.5 %."""
    config = default_stress_config("cassandra", "read_update", replication=3,
                                   seed=1)
    config = replace(
        config, record_count=4_000, operation_count=9_000, n_threads=32,
        n_nodes=8, settle_s=1.0,
        storage=replace(scaled_stress_storage(4_000, 1000, 7),
                        block_cache_bytes=64 << 20))
    _, throughput, summary = _run(config, warm_ops=3_000)
    assert throughput == pytest.approx(42_244.9, rel=0.01)
    assert summary["p95_ms"] == pytest.approx(1.0052, rel=0.01)


# -- one pipeline write, stage by stage -----------------------------------

@pytest.mark.parametrize("replication", [1, 2, 3])
def test_pipeline_write_is_one_event_per_hop(replication):
    cluster = flat_cluster(n_nodes=4)
    env, net = cluster.env, cluster.spec.node.network
    client = cluster.node(0)
    datanodes = [DataNode(cluster.node(i)) for i in (1, 2, 3)][:replication]
    for dn in datanodes:
        # Wake each page-cache flusher now (it then sleeps out its
        # interval), so a packet's buffered append kicks nothing.
        dn.node.disk.append_buffered(1)
    env.run(until=1e-6)  # start-up events and the kicks
    start, before = env.now, env.processed_events
    size = 3_000
    env.run(until=env.process(
        pipeline_write(cluster, client, datanodes, size), eager=True))

    def wire(n_bytes):
        return (n_bytes + net.header_bytes) / net.bandwidth_bps

    data_hop = wire(size) + net.base_latency_s + wire(size) + PACKET_CPU_S
    ack_hop = wire(ACK_BYTES) + net.base_latency_s + wire(ACK_BYTES)
    # RF data hops + RF ack hops, one timeout each, nothing else.
    assert env.processed_events - before == 2 * replication
    assert env.now - start == pytest.approx(
        replication * (data_hop + ack_hop), abs=1e-12)
    assert [dn.bytes_received for dn in datanodes] == [size] * replication


# -- same work, whenever it is booked -------------------------------------

def _scripted_work(db: str) -> dict:
    """200 operations, one at a time with the cluster idle in between,
    so what they cost cannot depend on how events interleave: 100
    inserts, then reads, updates and scans over them.  Records are big
    and memtables small, so flushes (multi-chunk pipeline writes on
    HBase) and, on Cassandra, compactions take part."""
    config = _small_cell(db, StorageSpec(memtable_flush_bytes=96 * 1024,
                                         block_bytes=8 * 1024,
                                         block_cache_bytes=256 * 1024))
    session = ExperimentSession(config)
    env, binding, size = session.env, session.binding, 16_000

    def script():
        for i in range(200):
            key = key_for_index((i * 37) % 100)
            if i < 100:
                yield from binding.insert(key_for_index(i), i, size)
            elif i % 4 == 0:
                yield from binding.update(key, i, size)
            elif i % 4 == 3 and i % 8 == 3:
                yield from binding.scan(key, 5, size)
            else:
                yield from binding.read(key, size)
            yield env.timeout(0.01)

    env.run(until=env.process(script()))
    env.run(until=env.now + 5.0)
    nodes = session.cluster.nodes
    return {"cpu_time": [node.cpu_time for node in nodes],
            "bytes_sent": [node.nic.bytes_sent for node in nodes],
            "bytes_received": [node.nic.bytes_received for node in nodes],
            "messages": [session.cluster.network.messages]}


#: ``_scripted_work`` at ``6dbf6af``, per node (the client is last).
PARENT_WORK = {
    "cassandra": {
        "cpu_time": [0.0115812, 0.0095996, 0.0096778, 0.0095882, 0.05],
        "bytes_sent": [2391014, 1729982, 1521568, 2352926, 2039370],
        "bytes_received": [1849520, 1796070, 2036768, 2356112, 1996390],
        "messages": [1092]},
    "hbase": {
        "cpu_time": [0.0033556, 0.0028798, 0.003358, 0.0034578, 0.05188],
        "bytes_sent": [3388706, 3178710, 3628804, 2493662, 2041390],
        "bytes_received": [3009008, 2686612, 3103952, 3725000, 2206700],
        "messages": [1319]},
}


@pytest.mark.parametrize("db", sorted(PARENT_WORK))
def test_scripted_work_equals_the_parents(db):
    work = _scripted_work(db)
    for counter, parent in PARENT_WORK[db].items():
        assert work[counter] == pytest.approx(parent, rel=1e-3), counter
