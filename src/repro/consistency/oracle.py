"""One JSON-safe consistency report per recorded run.

:func:`build_consistency_report` decides which guarantee a run's
configuration promises (R+W > RF ⇒ per-key linearizability; otherwise
session guarantees + eventual convergence), runs the matching checkers
over the recorded history, and reduces the result to plain
floats/ints/strings so it rides the cell cache byte-identically — the
same contract as :func:`repro.core.failover.build_failover_report`.
"""

from __future__ import annotations

from typing import Optional

from repro.cassandra.consistency import ConsistencyLevel
from repro.consistency.checkers import check_convergence, check_history
from repro.consistency.history import History

__all__ = ["SESSION_KINDS", "VIOLATION_KINDS", "build_consistency_report",
           "unexpected_violations"]

#: Violation kinds a weak (eventually consistent) configuration is
#: allowed to exhibit under faults — the paper's F4/F6 staleness story.
SESSION_KINDS = ("stale_read", "read_your_writes", "monotonic_reads")

#: Every kind a report may count (stable key set, zeros included).
VIOLATION_KINDS = ("linearizability",) + SESSION_KINDS + ("convergence",)


def _quorum(n: int) -> int:
    return n // 2 + 1


def _geo_strong(read_cl: ConsistencyLevel, write_cl: ConsistencyLevel,
                per_dc: dict, client_dc: Optional[str]) -> bool:
    """Overlap classification for a Cassandra deployment, ``per_dc``
    its replicas per datacenter (a single rack: one entry).

    The session's coordinators sit in ``client_dc`` (DC-aware driver),
    so LOCAL_* levels count replicas of that datacenter.  The read
    quorum must intersect the set of replicas the write level is
    *guaranteed* to have acknowledged — locally for LOCAL_* reads,
    globally for the plain levels.  ``client_dc`` unknown ⇒ classify
    against the smallest datacenter (conservative).
    """
    total = sum(per_dc.values())
    if client_dc is not None and client_dc in per_dc:
        rf_local = per_dc[client_dc]
    else:
        rf_local = min(per_dc.values())

    #: Replica acks the write level guarantees inside the client's DC.
    write_local_min = {
        ConsistencyLevel.LOCAL_ONE: 1,
        ConsistencyLevel.LOCAL_QUORUM: _quorum(rf_local),
        ConsistencyLevel.EACH_QUORUM: _quorum(rf_local),
        ConsistencyLevel.ALL: rf_local,
    }.get(write_cl)
    if write_local_min is None:
        # Plain levels spread acks anywhere: only the acks that cannot
        # fit outside the client's DC are guaranteed local.
        acks = write_cl.required(total)
        write_local_min = max(0, acks - (total - rf_local))

    if read_cl.is_datacenter_local:
        return read_cl.required(rf_local) + write_local_min > rf_local

    #: Global reads intersect against the write's global guarantee.
    write_global_min = {
        ConsistencyLevel.LOCAL_ONE: 1,
        ConsistencyLevel.LOCAL_QUORUM: _quorum(rf_local),
        ConsistencyLevel.EACH_QUORUM: sum(_quorum(rf)
                                          for rf in per_dc.values()),
        ConsistencyLevel.ALL: total,
    }.get(write_cl)
    if write_global_min is None:
        write_global_min = write_cl.required(total)
    return read_cl.required(total) + write_global_min > total


def build_consistency_report(history: History, *, db: str,
                             read_cl: Optional[ConsistencyLevel] = None,
                             write_cl: Optional[ConsistencyLevel] = None,
                             replication: int = 3,
                             cassandra=None,
                             client_dc: Optional[str] = None) -> dict:
    """Check one recorded run and summarize the verdict.

    ``cassandra`` (the deployment, when there is one) enables the
    convergence check; call after the session has settled so repair and
    hint replay have drained.  HBase is always ``strong``: a region has
    one serving owner, so its reads are trivially linearizable — the
    checker then guards the client/failover path, not quorum math.

    Strong or weak is one overlap rule, :func:`_geo_strong`; a single
    rack is one datacenter of ``replication`` replicas.  On a geo
    deployment ``client_dc`` names the datacenter whose client drove
    this history — e.g. LOCAL_QUORUM+LOCAL_QUORUM from one region is
    strong, LOCAL_ONE never is, and EACH_QUORUM writes make
    LOCAL_QUORUM reads strong from *any* region.
    """
    if db == "hbase":
        strong = True
    else:
        per_dc = (cassandra.placement.replication_per_dc
                  if cassandra is not None else None)
        strong = _geo_strong(read_cl or ConsistencyLevel.ONE,
                             write_cl or ConsistencyLevel.ONE,
                             per_dc or {client_dc: replication}, client_dc)

    outcome = check_history(history, strong=strong)
    violations = list(outcome.violations)
    if cassandra is not None:
        written_keys = {op.key for op in history.ops
                        if op.kind == "write" and op.outcome != "fail"}
        violations.extend(check_convergence(cassandra, written_keys))

    by_kind = {kind: 0 for kind in VIOLATION_KINDS}
    for violation in violations:
        by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
    #: Worst provable staleness of any freshness violation — what an
    #: adaptive policy's declared bound S is checked against (0.0 when
    #: every read was fresh).
    max_lag = max((v.lag_s for v in violations if v.lag_s is not None),
                  default=0.0)

    report = dict(history.summary())
    report.update({
        "db": db,
        "read_cl": read_cl.value if read_cl is not None else None,
        "write_cl": write_cl.value if write_cl is not None else None,
        "replication": replication,
        "client_dc": client_dc,
        "strong": strong,
        "checked": {
            "linearizability": strong,
            "sessions": True,
            "convergence": cassandra is not None,
        },
        "violations": len(violations),
        "violations_by_kind": by_kind,
        "max_staleness_lag_s": max_lag,
        "examples": [v.to_dict() for v in violations[:20]],
    })
    return report


def unexpected_violations(report: dict) -> int:
    """Violations the run's own configuration forbids.

    A strong config (R+W > RF, or HBase) forbids everything.  A weak CL
    promises only eventual consistency: session/staleness findings are
    expected discoveries under faults, but divergence that survives
    quiescence + repair (``convergence``) is a model bug either way.
    """
    by_kind = report["violations_by_kind"]
    if report["strong"]:
        return sum(by_kind.values())
    return by_kind.get("convergence", 0)
