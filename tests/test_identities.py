"""Neutral ingredients leave the kernel schedule byte-identical.

Each row pairs two runs of one tiny cell where one side only adds an
ingredient that must change nothing: any consistency level at RF 1
(R = W = 1 there), a hedge policy at RF 1 (no spare replica, so the
race is a plain wait), the oracle that only records, a static adaptive
policy against the levels it pins, power management that never parks,
a manual scaling plan with no scale-out in it, a circuit breaker that
cannot trip on a fault-free cell, and a retry budget whose ratio is
infinite on a cell that never retries.  Both sides must
give the same kernel trace digest, the same event count and the same
measurement fields of the run summary.  A row that fails is an observer
effect or a wrong equivalence, not a number to re-pin.

The last row is the runner itself: a pool of two worker processes,
whose parent imports the cells' engines and instruments before it
forks, runs those neutral cells to the payloads a serial runner gives.
"""

import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.core.config import (ClientTierConfig, ElasticityConfig,
                               EnergyConfig, TailDefenseConfig)
from repro.core.runner import CellRunner, CellSpec, RunSpec
from repro.ycsb.workload import STRESS_WORKLOADS
from tests.conftest import traced_run
from tests.test_run_assembly import BASE_KEYS, _closed, _elastic, _open

pytestmark = pytest.mark.hashseed

ONE, QUORUM, ALL = (ConsistencyLevel.ONE, ConsistencyLevel.QUORUM,
                    ConsistencyLevel.ALL)


def _cell(db, workload="read_update", rf=3, read_cl=ONE, write_cl=ONE,
          power_mode="always_on", tail=TailDefenseConfig()):
    config = _closed(db)
    engine = replace(config.engine, replication=rf)
    if db == "cassandra":
        engine = replace(engine, read_cl=read_cl, write_cl=write_cl)
    return replace(
        config, workload=STRESS_WORKLOADS[workload], operation_count=1_500,
        faults=(), energy=EnergyConfig(power_mode=power_mode), tail=tail,
        engine=engine)


@lru_cache(maxsize=None)
def _run(cell, run_kwargs=()):
    """Trace digest, event count and measurement fields of one run."""
    digest, events, summary = traced_run(cell, **dict(run_kwargs))
    measured = {key: value for key, value in json.loads(summary).items()
                if key in BASE_KEYS}
    return digest, events, measured


#: The keywords of an elastic cell's measured run.
SCALED = {"open_loop": True, "scale": True}
#: An open-loop run through the client tier.
OPEN = {"open_loop": True}


def _open_cell(clienttier):
    """The open-loop cell with no faults and only ``clienttier``."""
    return replace(_open("cassandra"), faults=(), clienttier=clienttier)


def _row(name, plain, plain_kwargs, neutral, neutral_kwargs):
    return pytest.param(plain, tuple(plain_kwargs.items()), neutral,
                        tuple(neutral_kwargs.items()), id=name)


ROWS = [
    *(_row(f"rf1-{workload}-{read.value}/{write.value}",
           _cell("cassandra", workload, rf=1), {},
           _cell("cassandra", workload, rf=1, read_cl=read, write_cl=write),
           {})
      for workload in ("read_update", "read_latest")
      for read, write in ((QUORUM, QUORUM), (ALL, ALL), (ONE, ALL))),
    *(_row(f"rf1-{workload}-hedge-p95",
           _cell("cassandra", workload, rf=1), {},
           _cell("cassandra", workload, rf=1,
                 tail=TailDefenseConfig(hedge="p95")), {})
      for workload in ("read_update", "read_latest")),
    *(_row(f"{db}-oracle-armed", _cell(db), {},
           _cell(db), {"check_consistency": True})
      for db in ("hbase", "cassandra")),
    _row("static-one", _cell("cassandra"), {},
         _cell("cassandra"), {"adaptive": "static-one"}),
    _row("static-quorum", _cell("cassandra"),
         {"read_cl": QUORUM, "write_cl": QUORUM},
         _cell("cassandra"), {"adaptive": "static-quorum"}),
    *(_row(f"{db}-power-policy-unparked", _cell(db), {},
           _cell(db, power_mode="policy"), {})
      for db in ("hbase", "cassandra")),
    _row("manual-scaling-without-events",
         replace(_elastic("cassandra"),
                 elasticity=ElasticityConfig(mode="static")), SCALED,
         replace(_elastic("cassandra"),
                 elasticity=ElasticityConfig(mode="manual", events=())),
         SCALED),
    # Trips only on a window of nothing but failures: never, here.
    _row("breaker-that-cannot-trip", _open_cell(ClientTierConfig()), OPEN,
         _open_cell(ClientTierConfig(breaker_failure_rate=1.0)), OPEN),
    # Every request earns the bucket full; no request here fails, so no
    # retry ever asks it.  (Where retries storm, the bucket's burst cap
    # denies some: an infinite ratio is not "no budget" there.)
    _row("retry-budget-of-infinite-ratio",
         _open_cell(ClientTierConfig(retries=3)), OPEN,
         _open_cell(ClientTierConfig(retries=3,
                                     retry_budget_ratio=float("inf"))),
         OPEN),
]


@pytest.mark.parametrize("plain, plain_kwargs, neutral, neutral_kwargs",
                         ROWS)
def test_neutral_ingredient_changes_nothing(plain, plain_kwargs, neutral,
                                            neutral_kwargs):
    digest, events, measured = _run(plain, plain_kwargs)
    assert events > 0
    assert _run(neutral, neutral_kwargs) == (digest, events, measured)


@pytest.mark.parametrize("plain, changed", [
    pytest.param(_cell("cassandra"),
                 _cell("cassandra", read_cl=QUORUM, write_cl=QUORUM),
                 id="quorum-at-rf3"),
    pytest.param(_cell("hbase"), _cell("hbase", power_mode="race_to_sleep"),
                 id="hbase-race-to-sleep"),
])
def test_a_non_neutral_ingredient_shows(plain, changed):
    """The comparison sees a real change: the rows above are equal
    because their ingredient is neutral, not because it never reached
    the run."""
    assert _run(plain)[0] != _run(changed)[0]


def test_a_pool_runs_the_cells_a_serial_runner_runs():
    """``--jobs 2`` against ``--jobs 1`` on cells with the neutral
    ingredients on: both engines, the oracle, a static policy, power
    management that never parks, a breaker that cannot trip, and a
    manual scaling plan with no events.  The payloads, kernel event
    counts included, must be equal."""
    checked = RunSpec("read_update", check=True)
    cells = [
        CellSpec("hbase", "hbase/oracle", _cell("hbase"), (checked,)),
        CellSpec("cassandra", "cassandra/static-one",
                 _cell("cassandra", power_mode="policy"),
                 (RunSpec("read_update", check=True,
                          adaptive="static-one"),)),
        CellSpec("open", "cassandra/breaker",
                 _open_cell(ClientTierConfig(breaker_failure_rate=1.0)),
                 (RunSpec("read_mostly"),)),
        CellSpec("elastic", "cassandra/no-scale-out",
                 replace(_elastic("cassandra"),
                         elasticity=ElasticityConfig(mode="manual",
                                                     events=())),
                 (RunSpec("read_mostly"),)),
    ]
    serial = CellRunner(jobs=1).run(cells)
    assert all(payload["kernel"]["events"] > 0 for payload in serial)
    assert CellRunner(jobs=2).run(cells) == serial
