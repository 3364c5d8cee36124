"""What a process imports follows what its cells arm (DESIGN.md §3).

The harness imports at module level only what every cell runs; a
session imports its engine and the instruments its config carries when
it is built, and a measured run imports nothing.  Each case runs a
fresh interpreter, because this test process has long since imported
every module.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytestmark = pytest.mark.hashseed

SRC = Path(__file__).resolve().parents[1] / "src"

#: The engine modules a process that deploys no engine may load: the
#: record a cell's config carries, and the consistency levels the oracle
#: classifies by.
RECORDS = {"repro.cassandra.config", "repro.cassandra.consistency",
           "repro.hbase.config"}

#: Tiny cells of the benchmark's three shapes.
CELLS = textwrap.dedent("""
    from dataclasses import replace

    from repro.cassandra.consistency import ConsistencyLevel
    from repro.core.config import (ArrivalConfig, ClientTierConfig,
                                   TailDefenseConfig, default_stress_config,
                                   default_surge_config,
                                   scaled_stress_storage)
    from repro.ycsb.workload import STRESS_WORKLOADS


    def closed(db):
        config = default_stress_config(db, "read_update", replication=3)
        return replace(config, record_count=300, operation_count=400,
                       n_threads=8, n_nodes=5, settle_s=0.5,
                       storage=scaled_stress_storage(300, 1000, 4))


    def open_loop():
        config = default_surge_config(
            "cassandra",
            arrivals=ArrivalConfig(process="flash_crowd", rate=300.0,
                                   max_arrivals=400, n_users=1_000,
                                   n_tenants=4, spike_at_s=0.3,
                                   spike_factor=5.0, spike_duration_s=0.3),
            clienttier=ClientTierConfig(retries=3, retry_backoff_s=0.05,
                                        op_timeout_s=0.25),
            record_count=300, n_nodes=5, seed=42)
        return replace(config, settle_s=0.5,
                       tail=TailDefenseConfig(handler_slots=16,
                                              max_handler_queue=32))


    OPEN_RUN = {"workload": STRESS_WORKLOADS["read_mostly"],
                "open_loop": True, "read_cl": ConsistencyLevel.ONE,
                "write_cl": ConsistencyLevel.ONE, "check_consistency": True}
""")


def _run(body: str):
    """Run ``CELLS`` + ``body`` in a fresh interpreter; ``body`` leaves
    its answer in ``out``, which comes back decoded from JSON."""
    script = CELLS + textwrap.dedent(body) + (
        "\nimport json\nprint(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _engine_modules(modules, package):
    return sorted(m for m in modules
                  if m.startswith(package + ".") and m not in RECORDS)


def test_the_harness_imports_no_engine_and_no_optional_instrument():
    modules = _run("""
        import sys

        import repro.core.cli
        import repro.core.experiment

        out = sorted(sys.modules)
    """)
    assert _engine_modules(modules, "repro.hbase") == []
    assert _engine_modules(modules, "repro.hdfs") == []
    assert _engine_modules(modules, "repro.cassandra") == []
    armed = {"repro.clienttier.openloop", "repro.adaptive.controller",
             "repro.core.failover"}
    assert sorted(armed.intersection(modules)) == []


@pytest.mark.parametrize("db,other", [("cassandra", ("repro.hbase",
                                                     "repro.hdfs")),
                                      ("hbase", ("repro.cassandra",))])
def test_a_session_imports_only_its_own_engine(db, other):
    modules = _run(f"""
        import sys

        from repro.core.experiment import ExperimentSession

        ExperimentSession(closed({db!r})).load()
        out = sorted(sys.modules)
    """)
    for package in other:
        assert _engine_modules(modules, package) == []
    own = "repro.hbase.deployment" if db == "hbase" else \
        "repro.cassandra.deployment"
    assert own in modules


@pytest.mark.parametrize("cell,run", [
    ("closed('cassandra')", "{}"),
    ("closed('hbase')", "{}"),
    ("open_loop()", "OPEN_RUN"),
], ids=["closed-cassandra", "closed-hbase", "open-loop-cassandra-checked"])
def test_a_measured_run_imports_nothing(cell, run):
    """The session compiled what its runs arm at build: a warm-up and a
    measured run leave ``sys.modules`` as they found it."""
    added = _run(f"""
        import sys

        from repro.core.experiment import ExperimentSession, summarize_run

        session = ExperimentSession({cell})
        session.load()
        before = set(sys.modules)
        session.warm(operations=200)
        summarize_run(session.run_cell(**{run}))
        out = sorted(set(sys.modules) - before)
    """)
    assert added == []
