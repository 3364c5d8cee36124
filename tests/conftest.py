"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.cluster.nic import NetworkSpec
from repro.cluster.node import NodeSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.core.experiment import ExperimentSession, summarize_run
from repro.hbase.regionserver import GroupCommitWal
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.keyspace import KEY_DOMAIN
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


def build_wal(n_dns=3, rf=2, sync=False):
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
    wal = GroupCommitWal(env, dfs, "test", sync=sync)
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


def ownership_fractions(ring) -> dict[int, float]:
    """Fraction of the token space each node of ``ring`` primarily
    owns: the arc from the previous token up to each of its tokens."""
    tokens = ring._tokens
    totals = {node_id: 0 for node_id in ring.node_ids}
    for i, owner in enumerate(ring._owners):
        start = tokens[i - 1] if i else tokens[-1] - KEY_DOMAIN
        totals[owner] += tokens[i] - start
    return {node_id: t / KEY_DOMAIN for node_id, t in totals.items()}


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


# -- golden values --------------------------------------------------------
#
# What a test compares against "what the code produced before" lives in
# ``tests/golden/pins/<test module>.txt``, one ``name = <Python literal>``
# per line, never in test code.  A name is the test's id inside its module
# (``Class::test[param]``), plus ``/<key>`` for each further value one test
# pins.  ``tools/replay_digests.py --update`` runs the pinned modules with
# ``--update-golden``: every ``golden(...)`` then records its value instead
# of comparing it, and every other assertion still runs.

PINS = Path(__file__).parent / "golden" / "pins"
_STORE = pytest.StashKey[dict]()


def pytest_addoption(parser):
    parser.addoption("--update-golden", action="store_true",
                     help="record every golden(...) value in "
                          "tests/golden/pins instead of comparing it")


def read_pins(path: Path) -> dict:
    """``name -> value`` of one pins file."""
    entries = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if line and not line.startswith("#"):
            name, _, literal = line.partition(" = ")
            try:
                entries[name] = ast.literal_eval(literal)
            except (SyntaxError, ValueError) as exc:
                raise ValueError(f"{path}:{number}: {name}: "
                                 f"not a Python literal ({exc})") from None
    return entries


def _module_pins(config, module: str) -> dict:
    store = config.stash.setdefault(_STORE, {})
    if module not in store:
        path = PINS / f"{module}.txt"
        store[module] = read_pins(path) if path.exists() else {}
    return store[module]


@pytest.fixture
def golden(request):
    """``golden(value, key=None, rel=None)``: ``value`` equals this test's
    golden entry (within ``rel`` when given).  A missing entry fails;
    under ``--update-golden`` a value that does not match is recorded."""
    module = request.module.__name__.rpartition(".")[2]
    test = request.node.nodeid.partition("::")[2]
    entries = _module_pins(request.config, module)
    updating = request.config.getoption("--update-golden")

    def check(value, key=None, rel=None):
        name = test if key is None else f"{test}/{key}"
        assert updating or name in entries, (
            f"no golden entry {name!r} in tests/golden/pins/{module}.txt; "
            "record it with tools/replay_digests.py --update")
        if name in entries:
            expected = entries[name]
            if rel is not None:
                expected = pytest.approx(expected, rel=rel)
            if not updating:
                assert value == expected, name
            if value == expected:
                return
        assert ast.literal_eval(repr(value)) == value, \
            f"{name}: {value!r} is not a Python literal"
        entries[name] = value

    return check


def pytest_sessionfinish(session, exitstatus):
    """Under ``--update-golden``, write every pins file a test read back
    — only if every test passed, so a failing gate records nothing."""
    if not session.config.getoption("--update-golden"):
        return
    if exitstatus != 0:
        print("\ngolden values NOT written: the update run failed")
        return
    for module, entries in session.config.stash.get(_STORE, {}).items():
        lines = [f"# tests/{module}.py; re-record with: PYTHONHASHSEED=0 "
                 "python tools/replay_digests.py --update"]
        lines += [f"{name} = {entries[name]!r}" for name in sorted(entries)]
        PINS.mkdir(parents=True, exist_ok=True)
        (PINS / f"{module}.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
