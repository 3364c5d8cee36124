"""Per-key consistency checkers over recorded histories.

Every record key is an independent last-write-wins register, so each
checker works on one key's sub-history (short — hundreds of ops at
most), which is what makes the Wing & Gong linearizability search
feasible here.

Soundness notes (why a reported violation is real, never a model
artefact):

- **Linearizability** (strong configs, R+W > RF): interval search over
  unique-valued writes.  An ``indeterminate`` write's effect window
  extends to infinity and the write is *optional* — it may linearize
  anywhere after its invocation or never have happened (Jepsen's "info"
  ops).  Reads returning a value outside the tracked write set (a
  pre-run row, or no row) map to one *untracked* initial state; such a
  read must linearize before any tracked write to its key, which is
  sound because nothing else writes workload keys while recording.
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
    #: Simulation time of the violating observation.
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
    #: Keys whose linearizability search exhausted its state budget
    #: (neither proven nor refuted).
    inconclusive_keys: list[str] = field(default_factory=list)
    keys_checked: int = 0
    #: Total states the linearizability searches explored.
    states_explored: int = 0

    def count(self, kind: str) -> int:
        return sum(1 for v in self.violations if v.kind == kind)


# -- linearizability (Wing & Gong interval search) -------------------------

@dataclass(frozen=True)
class _Item:
    """One searchable op: interval + register transition."""

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


def _search(items: list[_Item], max_states: int) -> tuple[Optional[bool], int]:
    """(linearizable?, states explored); ``None`` = budget exhausted."""
    n = len(items)
    required = [item.required for item in items]

    def done(remaining: frozenset) -> bool:
        return not any(required[i] for i in remaining)

    def candidates(remaining: frozenset) -> list[int]:
        # An op can linearize first only if no other pending op's whole
        # interval precedes it (Wing & Gong's minimal-op rule).
        min_end = min(items[i].end for i in remaining)
        cands = [i for i in remaining if items[i].start <= min_end]
        cands.sort(key=lambda i: (items[i].start, items[i].end))
        return cands

    all_ids = frozenset(range(n))
    if done(all_ids):
        return True, 0
    states = 0
    seen = {(all_ids, UNTRACKED)}
    # Each stack frame: (remaining, register value, candidate list, next
    # candidate index) — an explicit DFS, immune to recursion limits.
    stack = [(all_ids, UNTRACKED, candidates(all_ids), 0)]
    while stack:
        remaining, current, cands, at = stack.pop()
        for j in range(at, len(cands)):
            i = cands[j]
            item = items[i]
            if item.kind == "read" and item.value != current \
                    and not (item.value is UNTRACKED
                             and current is UNTRACKED):
                continue
            new_remaining = remaining - {i}
            new_current = current if item.kind == "read" else item.value
            state = (new_remaining, new_current)
            if state in seen:
                continue
            states += 1
            if states > max_states:
                return None, states
            seen.add(state)
            if done(new_remaining):
                return True, states
            stack.append((remaining, current, cands, j + 1))
            stack.append((new_remaining, new_current,
                          candidates(new_remaining), 0))
            break
    return False, states


def check_linearizable_key(key: str, ops: list[HistoryOp],
                           max_states: int = 200_000
                           ) -> tuple[Optional[Violation], bool, int]:
    """Check one key's register history for linearizability.

    Returns ``(violation, inconclusive, states_explored)``; at most one
    of the first two is truthy.  On refutation the violation pins the
    shortest invocation-order prefix that already has no linearization,
    naming the op that tipped it (best effort — skipped for very long
    histories).
    """
    items = _items_for_key(ops)
    verdict, states = _search(items, max_states)
    if verdict is None:
        return None, True, states
    if verdict:
        return None, False, states

    writes = sum(1 for item in items if item.kind == "write")
    reads = len(items) - writes
    detail = (f"no linearization of {len(items)} ops "
              f"({writes} writes, {reads} reads)")
    at_s: Optional[float] = None
    if len(items) <= 200:
        ordered = sorted(items, key=lambda item: (item.start, item.op_id))
        for k in range(1, len(ordered) + 1):
            prefix_verdict, prefix_states = _search(ordered[:k], max_states)
            states += prefix_states
            if prefix_verdict is False:
                culprit = ordered[k - 1]
                detail += (f"; first refuted by {culprit.kind} op "
                           f"#{culprit.op_id} invoked at "
                           f"{culprit.start:.4f}s")
                at_s = culprit.start
                break
            if prefix_verdict is None:
                break  # prefix budget exhausted; keep the summary detail
    return Violation(kind="linearizability", key=key, detail=detail,
                     at_s=at_s), False, states


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

def check_history(history: History, *, strong: bool,
                  max_states: int = 200_000) -> CheckOutcome:
    """Run every applicable checker over one recorded history.

    ``strong`` selects the guarantee under test: linearizability for
    R+W > RF configurations, session guarantees + global staleness
    otherwise.  The weak-CL checks also run for strong configs (they are
    implied by linearizability, so any hit there is a violation too).
    """
    outcome = CheckOutcome()
    for key, ops in sorted(history.per_key().items()):
        outcome.keys_checked += 1
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
            violation, inconclusive, states = check_linearizable_key(
                key, ops, max_states=max_states)
            outcome.states_explored += states
            if violation is not None:
                outcome.violations.append(violation)
            if inconclusive:
                outcome.inconclusive_keys.append(key)
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
