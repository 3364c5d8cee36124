"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.cluster.nic import NetworkSpec
from repro.cluster.node import NodeSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.experiment import ExperimentSession, summarize_run
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
