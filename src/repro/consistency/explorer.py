"""Seed exploration: hunt for consistency violations across schedules.

Fans N seeds x one fault-schedule template (crash / flap / partition /
slow from :mod:`repro.cluster.failure`) through the parallel cell
runner as ordinary benchmark cells with history recording switched on
(``RunSpec.check``), then aggregates the per-seed consistency reports
into one sweep verdict:

- violation totals by kind across the whole matrix;
- the seeds that violated, and the **minimal reproducing seed**;
- a replay verification: the minimal seed is re-executed from scratch
  (bypassing the cell cache) and must reproduce its report exactly —
  the deterministic kernel makes every found violation a repeatable
  test case, which is the point of exploring seeds instead of wall
  clocks.

Wired to the CLI as ``repro-bench check`` (see :mod:`repro.core.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.failure import FaultSpec
from repro.consistency.oracle import (SESSION_KINDS, VIOLATION_KINDS,
                                      unexpected_violations)
from repro.core.config import default_check_config, scaled_stress_storage
from repro.core.report import energy_rollup, run_energy
from repro.core.runner import CellRunner, CellSpec, RunSpec, execute_cell

__all__ = [
    "CHECK_CL_MODES",
    "CheckScale",
    "QUICK_CHECK_SCALE",
    "check_cells",
    "check_sweep",
]

#: Consistency rounds the explorer can drive (read CL, write CL) —
#: the paper's §4.3 modes.  QUORUM and ALL are strong (R+W > RF at
#: RF 3); ONE is the eventually consistent round the session checkers
#: target.  HBase has no per-request CL and always runs one "n/a" mode.
CHECK_CL_MODES: dict[str, tuple[ConsistencyLevel, ConsistencyLevel]] = {
    "ONE": (ConsistencyLevel.ONE, ConsistencyLevel.ONE),
    "QUORUM": (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
    "ALL": (ConsistencyLevel.ONE, ConsistencyLevel.ALL),
}


@dataclass(frozen=True)
class CheckScale:
    """Scale knobs for one consistency-check cell.

    Deliberately small: the oracle needs operation interleavings, not
    statistical latency mass, and a 50-seed matrix must stay cheap.
    The fault window ends well before the run does, so the history
    covers fault, heal, *and* the post-heal window where a weak CL
    serves stale replicas until hint replay / read repair catches up.
    """

    record_count: int = 300
    operation_count: int = 2_500
    n_threads: int = 8
    n_nodes: int = 6
    target_throughput: float = 1_200.0
    #: When the fault fires / how long it lasts, relative to the
    #: measured run's start (the run lasts ~operation_count/target s).
    fault_at_s: float = 0.5
    fault_duration_s: float = 0.8
    #: Service-time multiplier for the gray-failure kinds.
    severity: float = 6.0
    #: partition only: nodes on the minority side.
    span: int = 1


#: Faster settings for CI smoke and --quick runs.
QUICK_CHECK_SCALE = CheckScale(record_count=150, operation_count=1_000,
                               n_threads=6, n_nodes=5,
                               target_throughput=1_000.0,
                               fault_at_s=0.3, fault_duration_s=0.5)


def check_cells(db: str, mode: str = "QUORUM",
                seeds: Union[int, Sequence[int]] = 25,
                fault: Optional[str] = None,
                no_repair: bool = False,
                scale: Optional[CheckScale] = None) -> list[CellSpec]:
    """One cell per seed: same template, different schedule."""
    scale = scale or CheckScale()
    if db == "cassandra" and mode not in CHECK_CL_MODES:
        raise ValueError(f"unknown consistency mode {mode!r}; "
                         f"choose from {sorted(CHECK_CL_MODES)}")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    read_cl = write_cl = None
    if db == "cassandra":
        read_cl, write_cl = CHECK_CL_MODES[mode]
    cells = []
    for seed in seed_list:
        config = default_check_config(
            db,
            read_cl=read_cl or ConsistencyLevel.ONE,
            write_cl=write_cl or ConsistencyLevel.ONE,
            seed=seed, no_repair=no_repair)
        config = replace(
            config, record_count=scale.record_count,
            operation_count=scale.operation_count,
            n_threads=scale.n_threads, n_nodes=scale.n_nodes,
            target_throughput=scale.target_throughput,
            storage=scaled_stress_storage(scale.record_count, 1000,
                                          scale.n_nodes - 1))
        if fault is not None:
            # Node 0 is a server in both deployments (the client — and
            # HBase's master — live on the last node).
            config = replace(config, faults=(FaultSpec(
                kind=fault, node_id=0, at_s=scale.fault_at_s,
                duration_s=scale.fault_duration_s,
                severity=scale.severity, span=scale.span),))
        label_mode = mode if db == "cassandra" else "n/a"
        cells.append(CellSpec(
            key=seed,
            label=(f"check/{db}/cl={label_mode}/"
                   f"{fault or 'healthy'}/seed={seed}"),
            config=config,
            runs=(RunSpec(
                workload="read_update",
                target_throughput=scale.target_throughput,
                read_cl=read_cl.value if read_cl else None,
                write_cl=write_cl.value if write_cl else None,
                faults=fault is not None,
                check=True),),
            warm=None))
    return cells


def check_sweep(db: str, mode: str = "QUORUM",
                seeds: Union[int, Sequence[int]] = 25,
                fault: Optional[str] = None,
                no_repair: bool = False,
                scale: Optional[CheckScale] = None,
                runner: Optional[CellRunner] = None,
                verify_replay: bool = True) -> dict:
    """Explore ``seeds`` schedules and aggregate the violation verdict.

    Returns a JSON-safe dict; see the module docstring for the shape.
    With ``verify_replay`` the minimal violating seed is re-executed
    from scratch (no cache, in-process) and ``replay_verified`` records
    whether the fresh report matched the sweep's bit for bit.
    """
    cells = check_cells(db, mode=mode, seeds=seeds, fault=fault,
                        no_repair=no_repair, scale=scale)
    payloads = (runner or CellRunner()).run(cells)
    per_seed: dict[int, dict] = {}
    by_kind: dict[str, int] = {}
    violating: list[int] = []
    unexpected = 0
    inconclusive = 0
    summaries = [payload["runs"][0] for payload in payloads]
    for cell, summary in zip(cells, summaries):
        report = summary["consistency"]
        per_seed[cell.key] = report
        # Canonical kind order, not dict order: a payload that
        # round-tripped through the cell cache comes back with sorted
        # keys, and the aggregate must render identically either way.
        for kind in VIOLATION_KINDS:
            by_kind[kind] = (by_kind.get(kind, 0)
                             + report["violations_by_kind"].get(kind, 0))
        unexpected += unexpected_violations(report)
        inconclusive += report["inconclusive_keys"]
        if report["violations"]:
            violating.append(cell.key)

    min_repro = min(violating) if violating else None
    replay_verified: Optional[bool] = None
    if verify_replay and min_repro is not None:
        spec = cells[[cell.key for cell in cells].index(min_repro)]
        fresh = execute_cell(spec)
        replay_verified = (fresh["runs"][0]["consistency"]
                           == per_seed[min_repro])

    session_total = sum(by_kind.get(kind, 0) for kind in SESSION_KINDS)
    return {
        "db": db,
        "mode": mode if db == "cassandra" else "n/a",
        "fault": fault,
        "no_repair": no_repair,
        "seeds": [cell.key for cell in cells],
        "per_seed": per_seed,
        "violations_by_kind": by_kind,
        "total_violations": sum(by_kind.values()),
        "session_violations": session_total,
        "unexpected_violations": unexpected,
        "inconclusive_keys": inconclusive,
        "violating_seeds": violating,
        "min_repro_seed": min_repro,
        "replay_verified": replay_verified,
        "example_violations": (per_seed[min_repro]["examples"][:10]
                               if min_repro is not None else []),
        # Energy rolls up across the whole matrix.
        **energy_rollup(map(run_energy, summaries)),
    }
