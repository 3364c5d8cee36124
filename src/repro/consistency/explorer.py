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

from typing import Optional, Sequence, Union

from repro.consistency.oracle import (SESSION_KINDS, VIOLATION_KINDS,
                                      unexpected_violations)
from repro.core.report import energy_rollup, run_energy
from repro.core.runner import CellRunner, execute_cell
from repro.core.sweep import campaign_cells

__all__ = ["check_sweep"]


def check_sweep(db: str, mode: str = "QUORUM",
                seeds: Union[int, Sequence[int]] = 25,
                fault: Optional[str] = None,
                no_repair: bool = False,
                scale=None,
                runner: Optional[CellRunner] = None,
                verify_replay: bool = True) -> dict:
    """Explore ``seeds`` schedules and aggregate the violation verdict.

    Returns a JSON-safe dict; see the module docstring for the shape.
    With ``verify_replay`` the minimal violating seed is re-executed
    from scratch (no cache, in-process) and ``replay_verified`` records
    whether the fresh report matched the sweep's bit for bit.
    """
    cells = campaign_cells("check", db, scale, cl=mode, seeds=seeds,
                           fault=fault, no_repair=no_repair)
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
