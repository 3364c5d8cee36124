"""The harness's only import surface onto ``repro``.

Everything the benchmark knows about the product lives here: the four
workloads, built from literal values, and the handful of classes the
direct-drive stages exercise.  ``bench/README.md`` lists the entry points
this file relies on; a refactor of ``src/`` keeps those (or a thin facade
for them) and nothing else in ``bench/`` needs to change.

Each workload exposes ``setup(seed, span)`` -> state, ``run(state)`` ->
outcome and ``summarize(state, outcome)`` -> a JSON-safe dict with at
least ``sim_digest``.  ``setup`` is unmeasured set-up (it records the
``build``/``load``/``warm`` spans itself); ``run`` + ``summarize`` is the
measured phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import os
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, Mapping

import repro
from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.topology import Cluster, ClusterSpec
from repro.consistency.oracle import unexpected_violations
from repro.core import cli
from repro.core.config import (ArrivalConfig, ClientTierConfig,
                               ExperimentConfig, TailDefenseConfig,
                               config_to_json, default_stress_config,
                               default_surge_config, scaled_stress_storage)
from repro.core.experiment import ExperimentSession, summarize_run
from repro.sim.kernel import AllOf, AnyOf, Environment, Process, Timeout
from repro.sim.rng import RngRegistry
from repro.storage.lsm import LocalDiskMedium, LsmTree, StorageSpec
from repro.ycsb.measurements import Measurements
from repro.ycsb.workload import STRESS_WORKLOADS, Workload

#: ``.../repro`` — what :func:`layers.layer_of` strips from profile paths.
PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: Functions whose call counts the traced run reports per operation.
#: Python functions are matched by code object, builtins by the
#: description string cProfile gives them.
PROFILE_HOOKS = {
    "processes": (Process.__init__.__code__,),
    "timeouts": (Timeout.__init__.__code__,),
    "resumes": (Process._resume.__code__,),
    "heap_ops": (f"<built-in method _heapq.{heapq.heappush.__name__}>",
                 f"<built-in method _heapq.{heapq.heappop.__name__}>"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- cell workloads ---------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One ``ExperimentSession``: build + load + warm, then one measured
    ``run_cell``."""

    make_config: Callable[[int], ExperimentConfig]
    warm_ops: int
    run_kwargs: Mapping = field(default_factory=dict)

    def setup(self, seed: int, span) -> SimpleNamespace:
        with span("build"):
            session = ExperimentSession(self.make_config(seed))
        with span("load"):
            session.load()
        with span("warm"):
            session.warm(operations=self.warm_ops)
        # Counters are session-lifetime: snapshot so the report covers
        # the measured phase only.
        return SimpleNamespace(session=session, before=session.db_stats())

    def run(self, state: SimpleNamespace):
        env = state.session.env
        events_before = env.processed_events
        result = state.session.run_cell(**self.run_kwargs)
        return result, env.processed_events - events_before

    def summarize(self, state: SimpleNamespace, outcome) -> dict:
        result, events = outcome
        session, config = state.session, state.session.config
        summary = summarize_run(result)
        open_loop = bool(self.run_kwargs.get("open_loop"))
        if open_loop:
            attempted = config.arrivals.max_arrivals
            accounted = summary["offered"]
        else:
            attempted = config.operation_count
            # The client drops the first warmup_fraction of a closed run
            # from the measurements.
            accounted = attempted - int(attempted * config.warmup_fraction)
        after, before = session.db_stats(), state.before
        cassandra = after.get("cassandra", {})
        out = {
            "sim_digest": _sha256(json.dumps(
                {"summary": summary, "events": events},
                sort_keys=True, separators=(",", ":"))),
            "config_hash": _sha256(config_to_json(config)),
            "sizes": {"db": config.db, "records": config.record_count,
                      "nodes": config.n_nodes, "warm_ops": self.warm_ops,
                      **({"max_arrivals": attempted} if open_loop else
                         {"operation_count": attempted,
                          "threads": config.n_threads})},
            "ops_attempted": attempted,
            "ops_accounted": accounted,
            "ops_ok": summary["ops"],
            "errors": summary["errors"],
            "errors_by_type": summary["errors_by_type"],
            "events": events,
            "sim_duration_s": result.duration_s,
            "sim_throughput": result.throughput,
            "stats": {
                "rpcs": after["rpc_count"] - before["rpc_count"],
                "cache_hit_rate": after["cache_hit_rate"],
                "sstables": after["sstables"],
                "read_repairs": (
                    cassandra.get("read_repairs", 0)
                    - before.get("cassandra", {}).get("read_repairs", 0)),
                "wal_batches": (after.get("wal_batches", 0)
                                - before.get("wal_batches", 0)),
            },
        }
        if summary.get("consistency") is not None:
            out["unexpected_violations"] = unexpected_violations(
                summary["consistency"])
        return out


def _closed_rw_config(db: str, operation_count: int):
    records, nodes = 4_000, 8

    def make(seed: int) -> ExperimentConfig:
        config = default_stress_config(db, "read_update", replication=3,
                                       seed=seed)
        return replace(
            config, record_count=records, operation_count=operation_count,
            n_threads=32, n_nodes=nodes, settle_s=1.0,
            storage=scaled_stress_storage(records, 1000, nodes - 1))

    return make


def _open_overload_config(seed: int) -> ExperimentConfig:
    config = default_surge_config(
        "cassandra",
        # A calm second well under the service ceiling, then 20x: with the
        # base rate near the ceiling the retry amplification is chaotic
        # and the work done differs by 6 % between seeds instead of 3 %.
        arrivals=ArrivalConfig(process="flash_crowd", rate=300.0,
                               max_arrivals=1_800, n_users=100_000,
                               n_tenants=8, spike_at_s=1.0,
                               spike_factor=20.0, spike_duration_s=2.0),
        clienttier=ClientTierConfig(retries=3, retry_backoff_s=0.05,
                                    op_timeout_s=0.25),
        record_count=4_000, n_nodes=6, seed=seed)
    return replace(config, tail=TailDefenseConfig(handler_slots=16,
                                                  max_handler_queue=32))


# -- the campaign workload --------------------------------------------------

@dataclass(frozen=True)
class Campaign:
    """One ``repro-bench`` command line, exactly as a user types it.

    The command has no seed flag, so ``--seed`` does not change its
    inputs; set-up is the imports alone (already done by the time
    ``setup`` runs) and every cell's load + warm is inside the measured
    phase, as it is for the user.
    """

    argv: tuple

    def setup(self, seed: int, span) -> None:
        return None

    def run(self, state) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue()

    def summarize(self, state, outcome) -> dict:
        code, report = outcome
        return {"sim_digest": _sha256(report), "exit_code": code,
                "sizes": {"argv": " ".join(self.argv)}}


WORKLOADS = {
    "cas_closed_rw": Cell(_closed_rw_config("cassandra", 9_000),
                          warm_ops=3_000),
    "hbase_closed_rw": Cell(_closed_rw_config("hbase", 15_000),
                            warm_ops=3_000),
    "cas_open_overload": Cell(
        _open_overload_config, warm_ops=1_000,
        run_kwargs={"workload": STRESS_WORKLOADS["read_mostly"],
                    "open_loop": True, "read_cl": ConsistencyLevel.ONE,
                    "write_cl": ConsistencyLevel.ONE,
                    "check_consistency": True}),
    "campaign_fig2_quick": Campaign(
        ("fig2", "--quick", "--no-cache", "--jobs", "1", "--max-rf", "2",
         "--db", "hbase")),
}


# -- what the direct-drive stages are allowed to touch ----------------------

DRIVE = SimpleNamespace(
    Environment=Environment, AllOf=AllOf, AnyOf=AnyOf,
    Cluster=Cluster, ClusterSpec=ClusterSpec, RngRegistry=RngRegistry,
    LsmTree=LsmTree, LocalDiskMedium=LocalDiskMedium, StorageSpec=StorageSpec,
    Workload=Workload, read_update=STRESS_WORKLOADS["read_update"],
    Measurements=Measurements)
