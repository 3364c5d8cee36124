"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.cluster.nic import NetworkSpec
from repro.cluster.node import NodeSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.experiment import ExperimentSession, summarize_run
from repro.hbase.regionserver import GroupCommitWal
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.sim.trace import KernelTracer


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(seed=1234)


@pytest.fixture
def small_cluster(env, rngs) -> Cluster:
    """Four server nodes + nothing fancy."""
    return Cluster(env, ClusterSpec(n_nodes=4), rngs)


def flat_cluster(n_nodes: int = 2, seed: int = 3) -> Cluster:
    """A rack on a fresh environment whose switch hop is exactly
    ``base_latency_s`` (no tail), so leg times can be summed by hand."""
    spec = ClusterSpec(n_nodes=n_nodes, node=NodeSpec(
        network=NetworkSpec(latency_tail=0.0, latency_floor=1.0)))
    return Cluster(Environment(), spec, RngRegistry(seed))


def build_wal(n_dns=3, rf=2, pipeline_depth=4, sync=False):
    """One group-commit WAL on node 0 of a default rack (seed 55) with
    ``n_dns`` datanodes and the NameNode on the node after them; returns
    ``(env, cluster, wal)``."""
    env = Environment()
    rngs = RngRegistry(55)
    cluster = Cluster(env, ClusterSpec(n_nodes=n_dns + 1), rngs)
    datanodes = {i: DataNode(cluster.node(i)) for i in range(n_dns)}
    namenode = NameNode(cluster.node(n_dns), list(datanodes),
                        rngs.stream("nn"))
    dfs = DfsClient(cluster, namenode, datanodes, cluster.node(0), rf,
                    rngs.stream("dfs"))
    wal = GroupCommitWal(env, dfs, "test", sync=sync,
                         pipeline_depth=pipeline_depth)
    return env, cluster, wal


def schedule_appends(env, wal, arrivals):
    """Schedule one ``wal.append(size)`` at each ``(at, size)``; returns
    the log the appenders fill as ``env`` runs — per append, in ack
    order, ``(index, ack instant, batches so far, segment, its size)``,
    the segment's size as the ack's waiter finds it."""
    log = []

    def one(index, at, size):
        yield env.timeout(at)
        yield wal.append(size)
        file = wal._wal_file
        log.append((index, env.now, wal.batches, file.path, file.size_bytes))

    for index, (at, size) in enumerate(arrivals):
        env.process(one(index, at, size))
    return log


def traced_run(config, **run_kwargs):
    """Build, load and run one cell from scratch (``run_kwargs`` go to
    ``run_cell``) with the kernel trace on; returns the trace digest,
    the processed-event count and the canonical summary JSON."""
    session = ExperimentSession(config)
    tracer = KernelTracer(session.env)
    session.load()
    result = session.run_cell(**run_kwargs)
    summary = json.dumps(summarize_run(result), sort_keys=True)
    return tracer.digest(), tracer.events, summary
