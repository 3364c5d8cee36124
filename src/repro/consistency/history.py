"""Operation histories: what every client saw, as intervals.

A :class:`HistoryRecorder` wraps any :class:`~repro.ycsb.db.DbBinding`
(so the same hook covers the HBase client, the Cassandra session, and
anything driving them — YCSB workers, probes) and logs one
:class:`HistoryOp` per operation: the invocation/response interval in
simulated time, the session (the issuing process's name, e.g.
``ycsb-3``), the consistency level in force, and the outcome.

Outcome classification (of a :class:`~repro.sim.kernel.ModelledFailure`;
a bug is not recorded) is the part correctness hinges on:

- ``ok`` — the database acknowledged the operation;
- ``fail`` — the operation definitively did not take effect.  For
  writes that is only :class:`~repro.cassandra.consistency.UnavailableError`
  (raised before any replica mutation is issued); failed reads have no
  effect by construction.
- ``indeterminate`` — a write that errored *after* it may have reached
  replicas (timeouts, dead coordinators, shed requests, spent
  deadlines).  The checkers must allow such a write to take effect at
  any later point — or never (Jepsen's "info" operations).

Write tagging: with ``tag_writes`` (the default) every recorded write
replaces its payload with a unique tag (``h<op_id>``).  Record values
are opaque to the simulation — the byte size travels separately — so
tagging changes no timing, but it makes the register history *unique
write values*, which the linearizability check requires to map a read
back to the write it observed (it refuses a key with duplicates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.cassandra.consistency import UnavailableError
from repro.sim.kernel import ModelledFailure

__all__ = ["History", "HistoryOp", "HistoryRecorder"]


@dataclass(frozen=True)
class HistoryOp:
    """One recorded operation interval."""

    op_id: int
    #: Issuing process name (``ycsb-N``, ``staleness-probe``, ...).
    session: str
    #: "write" | "read" | "scan".
    kind: str
    key: str
    invoke_s: float
    response_s: float
    #: "ok" | "fail" | "indeterminate" (see module docstring).
    outcome: str
    #: Written tag (writes) / returned value (reads) / row count (scans).
    value: Any = None
    #: Server-side write timestamp an ``ok`` read returned with its value.
    timestamp: Optional[float] = None
    #: Consistency level in force, when the binding has one.
    cl: Optional[str] = None
    #: Exception type name for non-ok outcomes.
    error: Optional[str] = None


@dataclass
class History:
    """All operations one recorded run observed, in completion order."""

    ops: list[HistoryOp] = field(default_factory=list)

    def add(self, op: HistoryOp) -> None:
        self.ops.append(op)

    def per_key(self) -> dict[str, list[HistoryOp]]:
        """Register sub-histories: non-scan ops grouped by key, in
        invocation order (scans touch key ranges, not registers)."""
        grouped: dict[str, list[HistoryOp]] = {}
        for op in self.ops:
            if op.kind == "scan":
                continue
            grouped.setdefault(op.key, []).append(op)
        for ops in grouped.values():
            ops.sort(key=lambda o: (o.invoke_s, o.op_id))
        return grouped

    def sessions(self) -> set[str]:
        return {op.session for op in self.ops}

    def summary(self) -> dict:
        """JSON-safe op counts (the report's header block)."""
        kinds = {"write": 0, "read": 0, "scan": 0}
        outcomes = {"ok": 0, "fail": 0, "indeterminate": 0}
        for op in self.ops:
            kinds[op.kind] += 1
            outcomes[op.outcome] += 1
        return {
            "ops": len(self.ops),
            "writes": kinds["write"],
            "reads": kinds["read"],
            "scans": kinds["scan"],
            "ok": outcomes["ok"],
            "failed": outcomes["fail"],
            "indeterminate": outcomes["indeterminate"],
            "keys": len({op.key for op in self.ops if op.kind != "scan"}),
            "sessions": len(self.sessions()),
        }


class HistoryRecorder:
    """Records a :class:`History` while delegating to a real binding.

    Implements the :class:`~repro.ycsb.db.DbBinding` protocol, so it
    drops transparently between the YCSB client and either database
    client.  ``read_cl``/``write_cl`` are zero-argument callables
    returning the CL name in force (Cassandra's session can change CLs
    per run); leave them ``None`` for engines without per-request CLs.
    Each recorder fills its own :attr:`history`.  ``tag_writes=False``
    records write values as given (see the module docstring): the
    staleness probe compares its own integer sequence values.
    """

    def __init__(self, inner, env, tag_writes: bool = True,
                 read_cl: Optional[Callable[[], str]] = None,
                 write_cl: Optional[Callable[[], str]] = None,
                 tag_prefix: str = "h") -> None:
        self.inner = inner
        self.env = env
        self.history = History()
        self.tag_writes = tag_writes
        #: Tag namespace.  When several recorded runs share one database
        #: (a geo cell measures once per client region), a bare ``h<id>``
        #: from an earlier run survives in the store and would alias a
        #: *different* op id in the next run's history — the checker
        #: would map a stale-but-legitimate pre-run value onto one of its
        #: own writes.  Callers therefore pass a per-run prefix.
        self.tag_prefix = tag_prefix
        self._read_cl = read_cl
        self._write_cl = write_cl
        self._next_id = 0

    # ``env._active_process`` (the running process, if any) and
    # ``env._now`` here and below: ``env.now`` is a property frame, paid
    # on every recorded operation.

    def _session(self) -> str:
        process = self.env._active_process
        return process.name if process is not None else "main"

    def _record(self, **kwargs) -> None:
        self.history.add(HistoryOp(response_s=self.env._now, **kwargs))

    def write(self, key: str, value: Any, size: int) -> Generator:
        self._next_id += 1
        op_id = self._next_id
        tag = f"{self.tag_prefix}{op_id}" if self.tag_writes else value
        session = self._session()
        cl = self._write_cl() if self._write_cl is not None else None
        invoke = self.env._now
        try:
            result = yield from self.inner.write(key, tag, size)
        except ModelledFailure as exc:
            # UnavailableError is raised before any replica mutation is
            # issued — a definitive no.  Every other failure leaves the
            # write's effect unknown: it may have landed on some
            # replicas, may land later (hints), or never.
            outcome = ("fail" if isinstance(exc, UnavailableError)
                       else "indeterminate")
            self._record(op_id=op_id, session=session, kind="write", key=key,
                         invoke_s=invoke, outcome=outcome, value=tag, cl=cl,
                         error=type(exc).__name__)
            raise
        self._record(op_id=op_id, session=session, kind="write", key=key,
                     invoke_s=invoke, outcome="ok", value=tag, cl=cl)
        return result

    def read(self, key: str, size: int) -> Generator:
        self._next_id += 1
        op_id = self._next_id
        session = self._session()
        cl = self._read_cl() if self._read_cl is not None else None
        invoke = self.env._now
        try:
            result = yield from self.inner.read(key, size)
        except ModelledFailure as exc:
            # A failed read has no effect on the register.
            self._record(op_id=op_id, session=session, kind="read", key=key,
                         invoke_s=invoke, outcome="fail", cl=cl,
                         error=type(exc).__name__)
            raise
        value, timestamp = result if result is not None else (None, None)
        self._record(op_id=op_id, session=session, kind="read", key=key,
                     invoke_s=invoke, outcome="ok", value=value,
                     timestamp=timestamp, cl=cl)
        return result

    def scan(self, start_key: str, limit: int, record_bytes: int) -> Generator:
        self._next_id += 1
        op_id = self._next_id
        session = self._session()
        cl = self._read_cl() if self._read_cl is not None else None
        invoke = self.env._now
        try:
            rows = yield from self.inner.scan(start_key, limit, record_bytes)
        except ModelledFailure as exc:
            self._record(op_id=op_id, session=session, kind="scan",
                         key=start_key, invoke_s=invoke, outcome="fail",
                         cl=cl, error=type(exc).__name__)
            raise
        self._record(op_id=op_id, session=session, kind="scan", key=start_key,
                     invoke_s=invoke, outcome="ok",
                     value=len(rows) if rows else 0, cl=cl)
        return rows
