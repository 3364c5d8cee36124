"""The run assembly, one row per observer combination in real use.

``ExperimentSession.run_cell`` assembles a measured run from an ordered
list of instruments (``core/experiment.py``).  The campaign table and
the benchmark drive it with exactly nine keyword combinations; each is a
row here, on a tiny cell, and must (a) put exactly its instruments'
report keys in the summary, (b) conserve operations, and (c) replay
bit-identically from scratch.  Adding an observer adds its row.
"""

import json
from dataclasses import replace

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.config import FaultSpec
from repro.core.config import (ArrivalConfig, ClientTierConfig,
                               ElasticityConfig, default_scale_config,
                               default_surge_config, scaled_stress_storage)
from repro.core.experiment import ExperimentSession, summarize_run
from repro.core.sweep import CAMPAIGNS, campaign_cells
from tests.conftest import traced_run

pytestmark = pytest.mark.hashseed

CRASH = (FaultSpec(kind="crash", node_id=0, at_s=0.3, duration_s=0.5),)
ARRIVALS = ArrivalConfig(process="flash_crowd", rate=300.0, max_arrivals=600,
                         n_users=1_000, n_tenants=4, spike_at_s=0.5,
                         spike_factor=5.0, spike_duration_s=0.5)


def _closed(db):
    config = campaign_cells("check", db, seeds=(11,))[0].config
    return replace(config, record_count=300, operation_count=800,
                   target_throughput=1_000.0, n_nodes=5, settle_s=1.0,
                   storage=scaled_stress_storage(300, 1000, 4), faults=CRASH)


def _geo(_db):
    config = campaign_cells("geo", scale=CAMPAIGNS["geo"].quick,
                            modes=("LOCAL_QUORUM",),
                            scenarios=("dc_partition",))[0].config
    return replace(
        config, record_count=200, operation_count=400, n_threads=4, seed=13,
        settle_s=1.0, storage=scaled_stress_storage(200, 1000, 6),
        faults=(FaultSpec(kind="dc_partition", datacenter="ap-southeast",
                          at_s=0.2, duration_s=0.4),))


def _open(db):
    config = default_surge_config(
        db, arrivals=ARRIVALS, record_count=300, n_nodes=5, seed=5,
        clienttier=ClientTierConfig(retries=1, rate_limit_per_tenant=200.0,
                                    leveling_workers=8, leveling_queue=16,
                                    cache_ttl_s=0.5, op_timeout_s=0.25))
    return replace(config, settle_s=1.0, faults=CRASH)


def _elastic(db):
    config = default_scale_config(
        db, arrivals=replace(ARRIVALS, max_arrivals=800), record_count=300,
        n_nodes=5, seed=17,
        elasticity=ElasticityConfig(mode="manual", events=(0.5,)))
    return replace(config, settle_s=1.0)


BOTH, CASSANDRA = ("hbase", "cassandra"), ("cassandra",)
#: (make config, run_cell keywords, databases) — the verified traffic.
COMBINATIONS = [
    (_closed, {}, BOTH),                                # fig1/2/3, tail
    (_closed, {"inject_faults": True}, BOTH),           # failover, tail
    (_closed, {"check_consistency": True}, BOTH),       # check, energy
    (_closed, {"check_consistency": True, "inject_faults": True}, BOTH),
    (_closed, {"check_consistency": True,               # energy-aware
               "adaptive": "staleness-bound"}, CASSANDRA),
    (_closed, {"inject_faults": True, "check_consistency": True,
               "adaptive": "stepwise"}, CASSANDRA),     # adaptive
    (_geo, {"check_consistency": True,                  # geo
            "client_dc": "us-west"}, CASSANDRA),
    (_geo, {"check_consistency": True, "inject_faults": True,
            "client_dc": "ap-southeast"}, CASSANDRA),
    (_open, {"open_loop": True}, BOTH),                 # surge
    (_open, {"open_loop": True, "check_consistency": True}, CASSANDRA),
    (_open, {"open_loop": True, "check_consistency": True,
             "inject_faults": True}, CASSANDRA),
    (_elastic, {"open_loop": True, "check_consistency": True,
                "scale": True}, BOTH),                  # scale
]
ROWS = [pytest.param(make, kwargs, db, id=f"{db}-{'+'.join(kwargs) or 'plain'}")
        for make, kwargs, dbs in COMBINATIONS for db in dbs]

BASE_KEYS = {"workload", "target", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
             "p999_ms", "throughput", "ops", "errors", "errors_by_type",
             "energy", "cost", "joules_per_op", "usd_per_mops"}
#: run_cell keyword -> the summary keys its instrument contributes.
REPORT_KEYS = {
    "inject_faults": {"failover"},
    "check_consistency": {"consistency"},
    "adaptive": {"decisions"},
    "client_dc": set(),
    "open_loop": {"clienttier", "offered", "offered_per_s", "goodput"},
    "scale": {"scale"},
}


@pytest.mark.parametrize("make, kwargs, db", ROWS)
def test_combination_reports_conserves_and_replays(make, kwargs, db):
    config = make(db)
    first = traced_run(config, **kwargs)
    assert first[1] > 0
    assert first == traced_run(config, **kwargs)

    summary = json.loads(first[2])
    expected = BASE_KEYS.union(*(REPORT_KEYS[key] for key in kwargs))
    assert set(summary) == expected
    if kwargs.get("open_loop"):
        assert summary["offered"] == config.arrivals.max_arrivals
        assert summary["ops"] + summary["errors"] == summary["offered"]
    else:
        measured = config.operation_count - int(
            config.operation_count * config.warmup_fraction)
        assert summary["ops"] + summary["errors"] == measured


def test_adaptive_run_restores_the_session_cls():
    config = _closed("cassandra")
    session = ExperimentSession(config)
    session.load()
    session.run_cell(adaptive="stepwise", check_consistency=True,
                     read_cl=ConsistencyLevel.ONE)
    cql = session.client
    assert (cql.read_cl, cql.write_cl) == (ConsistencyLevel.ONE,
                                           config.engine.write_cl)
    summary = summarize_run(session.run_cell(check_consistency=True))
    assert (summary["consistency"]["read_cl"],
            summary["consistency"]["write_cl"]) == ("ONE", "QUORUM")


REFUSALS = [
    ("cassandra", _closed, {"open_loop": True}, "need config.arrivals"),
    ("cassandra", _open, {"open_loop": True, "adaptive": "stepwise"},
     "adaptive is closed-loop only"),
    ("hbase", _closed, {"read_cl": ConsistencyLevel.ONE},
     "consistency levels only apply to Cassandra"),
    ("cassandra", _open, {"open_loop": True, "target_throughput": 100.0},
     "target_throughput is closed-loop only"),
    ("cassandra", _open, {"open_loop": True, "operation_count": 10},
     "operation_count is closed-loop only"),
    ("hbase", _closed, {"adaptive": "stepwise"}, "requires Cassandra"),
    ("cassandra", _closed, {"client_dc": "eu-west"},
     "requires a geo deployment"),
    ("cassandra", _geo, {"client_dc": "mars"},
     "no client in datacenter 'mars'"),
    ("cassandra", _closed, {"scale": True}, "need config.elasticity"),
]


@pytest.mark.parametrize("db, make, kwargs, message", REFUSALS)
def test_refusals_name_the_problem(db, make, kwargs, message):
    session = ExperimentSession(make(db))
    session.load()
    events = session.env.processed_events
    with pytest.raises(ValueError, match=message):
        session.run_cell(**kwargs)
    # Refused before anything ran.
    assert session.env.processed_events == events


def test_run_cell_keywords_are_the_frozen_eleven():
    """What ``bench/adapter.py`` and ``execute_cell`` pass by name; a
    closed run's client threads and warm-up share are the config's."""
    import inspect
    parameters = inspect.signature(ExperimentSession.run_cell).parameters
    assert list(parameters)[1:] == [
        "workload", "operation_count", "target_throughput",
        "read_cl", "write_cl", "inject_faults", "check_consistency",
        "adaptive", "client_dc", "open_loop", "scale"]


def test_warm_returns_nothing_and_measured_runs_use_the_configs_fraction():
    config = _closed("hbase")
    session = ExperimentSession(config)
    session.load()
    assert session.warm(operations=200) is None
    result = session.run_cell()
    # 800 operations less the config's 10 % warm-up share.
    assert config.warmup_fraction == 0.1
    assert result.operations + result.measurements.total_errors == 720


@pytest.mark.parametrize("db", BOTH)
def test_a_scale_step_during_a_transfer_is_skipped(db):
    """A manual instant inside the first scale-out's transfer finds a
    range movement (Cassandra) or a rebalance (HBase) in flight: the
    step is skipped, never a second concurrent join of the same spare."""
    config = replace(_elastic(db), elasticity=ElasticityConfig(
        mode="manual", events=(0.5, 0.6)))
    session = ExperimentSession(config)
    session.load()
    events = summarize_run(session.run_cell(open_loop=True, scale=True))[
        "scale"]["events"]
    assert [(event, node) for _, event, node in events] == [
        ("out_start", 3), ("out_skipped", -1), ("out_done", 3)]
