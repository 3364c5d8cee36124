"""Per-key consistency checkers over recorded histories.

Every record key is an independent last-write-wins register, so each
checker works on one key's sub-history.

Soundness notes (why a reported violation is real, never a model
artefact):

- **Linearizability** (strong configs, R+W > RF): the recorder tags
  every write with a unique value, so each read names the one write it
  returned, and a register history with a known reads-from map is
  decided in one sorted pass (Gibbons & Korach, "Testing shared
  memories", SIAM J. Comput. 1997).  A write and the reads that
  returned it form a *cluster*; ``lo`` is the cluster's earliest
  response and ``hi`` its latest invocation.  A cluster with
  ``lo < hi`` is a *forward zone*: its value must hold throughout
  ``(lo, hi)``.  Otherwise its ops share an instant in ``[hi, lo]`` (a
  *backward zone*) where the write and its reads can all take effect.
  The key linearizes unless a read responded before its own write was
  invoked, two forward zones overlap, or a backward zone sits inside a
  forward one.  Every comparison is strict: op *a* precedes op *b* only
  if ``a.end < b.start``, so ops touching at an instant are concurrent.
  An ``indeterminate`` write's response is at infinity — it may take
  effect anywhere after its invocation or never (Jepsen's "info" ops);
  unread, its zone ``[start, inf]`` fits inside no forward zone, which
  is the same as dropping it.  Reads returning a value outside the
  tracked write set (a pre-run row, no row, a failed write's tag) form
  one *untracked* cluster around a virtual write at minus infinity:
  such a read must take effect before any tracked write to its key,
  which is sound because nothing else writes workload keys while
  recording.  The rule needs unique write values per key; a duplicate
  is an error, not a verdict.
- **Staleness / session guarantees** (weak CLs): reads return the
  server-side write timestamp with the value, and a write's timestamp
  is assigned inside its invocation/response interval.  So for a write
  *w* that completed before a read was invoked, ``ts_read < w.invoke``
  proves the read returned a strictly older version — strict
  comparisons keep the check sound under ties.
- **Convergence**: after quiescence every *live* replica of a key must
  store the same newest timestamp (inspected directly, no simulated
  I/O).  Checked for Cassandra only — HBase regions have a single
  serving owner, so there is nothing to diverge (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from repro.consistency.history import History, HistoryOp

__all__ = [
    "CheckOutcome",
    "Violation",
    "check_convergence",
    "check_history",
    "check_linearizable_key",
]

#: Sentinel register value for "not written by a tracked op" — the
#: state before the first recorded write (pre-run rows and missing rows
#: both map here; a linearizable register cannot return to it once a
#: tracked write has linearized).
UNTRACKED = object()


@dataclass(frozen=True)
class Violation:
    """One checked-invariant breach, JSON-safe via :meth:`to_dict`."""

    #: "linearizability" | "stale_read" | "read_your_writes" |
    #: "monotonic_reads" | "convergence".
    kind: str
    key: str
    detail: str
    session: Optional[str] = None
    #: Simulation time of the violating observation (linearizability:
    #: the instant two ops' demands collide).
    at_s: Optional[float] = None
    #: Staleness lag of the observation (seconds): how long before the
    #: read's invocation the freshest missed write had already completed.
    #: Only set for freshness violations (stale_read / read_your_writes);
    #: the adaptive sweep compares it against the declared bound S.
    lag_s: Optional[float] = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "key": self.key, "session": self.session,
                "at_s": self.at_s, "lag_s": self.lag_s,
                "detail": self.detail}


@dataclass
class CheckOutcome:
    """Everything one history check produced."""

    violations: list[Violation] = field(default_factory=list)

    def count(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)


# -- linearizability (Gibbons & Korach zone check) -------------------------

@dataclass(frozen=True)
class _Item:
    """One register op: interval + the value it wrote or returned."""

    op_id: int
    kind: str  # "write" | "read"
    value: object
    start: float
    end: float
    #: Must appear in the linearization ("ok" ops); indeterminate
    #: writes are optional.
    required: bool


def _items_for_key(ops: list[HistoryOp]) -> list[_Item]:
    writes = [op for op in ops if op.kind == "write" and op.outcome != "fail"]
    tracked = {op.value for op in writes}
    items = []
    for op in writes:
        indeterminate = op.outcome == "indeterminate"
        items.append(_Item(op.op_id, "write", op.value, op.invoke_s,
                           math.inf if indeterminate else op.response_s,
                           required=not indeterminate))
    for op in ops:
        if op.kind != "read" or op.outcome != "ok":
            continue
        value = op.value if op.value in tracked else UNTRACKED
        items.append(_Item(op.op_id, "read", value, op.invoke_s,
                           op.response_s, required=True))
    return items


#: The write every UNTRACKED read returned: it precedes every op.
_PRE_RUN = _Item(0, "write", UNTRACKED, -math.inf, -math.inf, required=False)


@dataclass
class _Zone:
    """One write's cluster — the write and every read that returned its
    value — reduced to the op that responded first (``lo``) and the op
    invoked last (``hi``)."""

    write: _Item
    lo: _Item
    hi: _Item

    @property
    def forward(self) -> bool:
        """Some op of the cluster responded before another was invoked,
        so the value must hold throughout ``(lo.end, hi.start)``."""
        return self.lo.end < self.hi.start

    def describe(self) -> str:
        """What the zone demands, naming the two ops that bound it."""
        lo, hi = self.lo, self.hi
        if self.write is _PRE_RUN:
            return (f"the pre-run value must hold until op #{hi.op_id} is "
                    f"invoked at {hi.start:.4f}s")
        value = f"write op #{self.write.op_id}'s value"
        if self.forward:
            return (f"{value} must hold from op #{lo.op_id}'s response at "
                    f"{lo.end:.4f}s until op #{hi.op_id} is invoked at "
                    f"{hi.start:.4f}s")
        return (f"{value} takes effect between op #{hi.op_id}'s invocation "
                f"at {hi.start:.4f}s and op #{lo.op_id}'s response at "
                f"{lo.end:.4f}s")


def check_linearizable_key(key: str,
                           ops: list[HistoryOp]) -> Optional[Violation]:
    """Check one key's register history for linearizability: ``None``
    when it linearizes, else the violation naming the two conflicting
    zones' ops, ``at_s`` the instant they collide (the zone rule in the
    module docstring).  Raises ``ValueError`` when two writes to the key
    carry the same value."""
    # Unread, the pre-run zone is the point minus infinity: it fits
    # inside no forward zone.
    zones = {UNTRACKED: _Zone(_PRE_RUN, _PRE_RUN, _PRE_RUN)}
    for item in _items_for_key(ops):  # writes first, then reads
        if item.kind == "write":
            if item.value in zones:
                raise ValueError(
                    f"key {key!r}: two writes of value {item.value!r}; the "
                    f"linearizability check needs unique write values "
                    f"(HistoryRecorder tags them)")
            zones[item.value] = _Zone(item, item, item)
            continue
        zone = zones[item.value]
        if item.end < zone.write.start:
            return Violation(
                kind="linearizability", key=key, at_s=item.end,
                detail=f"read op #{item.op_id} responded at {item.end:.4f}s "
                       f"with the value of write op #{zone.write.op_id}, "
                       f"invoked only at {zone.write.start:.4f}s")
        if item.end < zone.lo.end:
            zone.lo = item
        if item.start > zone.hi.start:
            zone.hi = item

    forward = sorted((zone for zone in zones.values() if zone.forward),
                     key=lambda zone: (zone.lo.end, zone.write.op_id))
    for first, second in zip(forward, forward[1:]):
        if second.lo.end < first.hi.start:
            return Violation(
                kind="linearizability", key=key, at_s=second.lo.end,
                detail=f"{first.describe()}, but {second.describe()}")
    # The forward zones are disjoint now: one bisect finds the only one
    # a backward zone could sit inside.
    starts = [zone.lo.end for zone in forward]
    for zone in zones.values():
        if zone.forward:
            continue
        at = bisect_left(starts, zone.hi.start) - 1
        if at >= 0 and zone.lo.end < forward[at].hi.start:
            return Violation(
                kind="linearizability", key=key, at_s=zone.lo.end,
                detail=f"{forward[at].describe()}, but {zone.describe()}")
    return None


# -- staleness + session guarantees ----------------------------------------

def _acked_writes(ops: list[HistoryOp],
                  session: Optional[str] = None) -> list[HistoryOp]:
    return [op for op in ops
            if op.kind == "write" and op.outcome == "ok"
            and (session is None or op.session == session)]


def _ok_reads(ops: list[HistoryOp],
              session: Optional[str] = None) -> list[HistoryOp]:
    return [op for op in ops
            if op.kind == "read" and op.outcome == "ok"
            and (session is None or op.session == session)]


def _freshness_violations(key: str, reads: list[HistoryOp],
                          writes: list[HistoryOp],
                          kind: str) -> list[Violation]:
    """Reads that returned a version provably older than a write already
    completed when the read was invoked (the timestamp argument in the
    module docstring).

    Each violation carries ``lag_s``: the read's invocation minus the
    earliest completion among the writes it provably missed — the
    longest the returned version had demonstrably been superseded.  The
    adaptive sweep checks this against a policy's declared staleness
    bound (a read may lawfully miss writes younger than the bound; a
    lag beyond it breaks the contract).
    """
    violations = []
    for read in reads:
        completed = [w for w in writes if w.response_s <= read.invoke_s]
        if not completed:
            continue
        bound = max(w.invoke_s for w in completed)
        if read.value is None:
            lag = read.invoke_s - min(w.response_s for w in completed)
            violations.append(Violation(
                kind=kind, key=key, session=read.session,
                at_s=read.response_s, lag_s=lag,
                detail=f"read at {read.invoke_s:.4f}s found no row after "
                       f"an acknowledged write (lag {lag:.4f}s)"))
        elif read.timestamp is not None and read.timestamp < bound:
            missed = [w for w in completed if w.invoke_s > read.timestamp]
            lag = (read.invoke_s - min(w.response_s for w in missed)
                   if missed else 0.0)
            violations.append(Violation(
                kind=kind, key=key, session=read.session,
                at_s=read.response_s, lag_s=lag,
                detail=f"read at {read.invoke_s:.4f}s returned version "
                       f"ts={read.timestamp:.4f} older than a write "
                       f"completed by {bound:.4f}s (lag {lag:.4f}s)"))
    return violations


def _monotonic_violations(key: str,
                          reads: list[HistoryOp]) -> list[Violation]:
    """Non-overlapping consecutive reads by one session whose returned
    version timestamps go backwards."""
    violations = []
    ordered = sorted(reads, key=lambda op: (op.invoke_s, op.op_id))
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.response_s > cur.invoke_s:
            continue  # overlapping reads impose no order
        prev_ts = prev.timestamp if prev.value is not None else None
        cur_ts = cur.timestamp if cur.value is not None else None
        regressed = (prev_ts is not None
                     and (cur_ts is None or cur_ts < prev_ts))
        if regressed:
            violations.append(Violation(
                kind="monotonic_reads", key=key, session=cur.session,
                at_s=cur.response_s,
                detail=f"read at {cur.invoke_s:.4f}s returned "
                       f"ts={'none' if cur_ts is None else f'{cur_ts:.4f}'} "
                       f"after an earlier read saw ts={prev_ts:.4f}"))
    return violations


# -- the per-history driver ------------------------------------------------

def check_history(history: History, *, strong: bool) -> CheckOutcome:
    """Run every applicable checker over one recorded history.

    ``strong`` selects the guarantee under test: linearizability for
    R+W > RF configurations, session guarantees + global staleness
    otherwise.  The weak-CL checks also run for strong configs (they are
    implied by linearizability, so any hit there is a violation too).
    """
    outcome = CheckOutcome()
    for key, ops in sorted(history.per_key().items()):
        reads = _ok_reads(ops)
        writes = _acked_writes(ops)
        outcome.violations.extend(
            _freshness_violations(key, reads, writes, kind="stale_read"))
        for session in sorted({op.session for op in ops}):
            own_reads = _ok_reads(ops, session)
            outcome.violations.extend(_freshness_violations(
                key, own_reads, _acked_writes(ops, session),
                kind="read_your_writes"))
            outcome.violations.extend(_monotonic_violations(key, own_reads))
        if strong:
            violation = check_linearizable_key(key, ops)
            if violation is not None:
                outcome.violations.append(violation)
    return outcome


# -- eventual convergence --------------------------------------------------

def check_convergence(cassandra, keys) -> list[Violation]:
    """After quiescence, all *live* replicas of each key must agree.

    Agreement is on the newest stored write timestamp, inspected
    directly on every replica's LSM tree (zero simulated cost).  Call
    after the run has settled (flushes, read repair, hint replay
    drained); keys whose only writes are pre-run load data are the
    caller's concern — pass the keys the history actually wrote.
    """
    violations = []
    for key in sorted(keys):
        stamps: dict[int, Optional[float]] = {}
        for node_id in cassandra.replicas_of(key):
            replica = cassandra.nodes[node_id]
            if not replica.node.alive:
                continue  # a dead replica converges after it rejoins
            stamps[node_id] = replica.newest_timestamp(key)
        if len(set(stamps.values())) > 1:
            rendered = ", ".join(
                f"n{node_id}={'none' if ts is None else f'{ts:.4f}'}"
                for node_id, ts in sorted(stamps.items()))
            violations.append(Violation(
                kind="convergence", key=key,
                detail=f"live replicas disagree after settling: {rendered}"))
    return violations
