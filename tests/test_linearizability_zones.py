"""The zone check, held against the search it replaced.

``check_linearizable_key`` decides a key in one sorted pass (the zone
rule in :mod:`repro.consistency.checkers`).  Three kinds of evidence
that it decides the same thing an exhaustive search does:

- a differential property: on small generated histories — ``ok``,
  ``fail`` and ``indeterminate`` writes; reads of a tracked tag, of a
  failed write's tag, of a pre-run value and of no row; times on a small
  integer grid, so ties are common — its verdict equals Wing & Gong's
  interval search (``_search`` below, unbudgeted), and both verdicts
  occur among the cases;
- non-vacuity on a real hot key: a strong history recorded from one
  ``check --quick --cl QUORUM`` cell linearizes, and every single-read
  mutation of its most-written key that breaks the register semantics
  (a stale read, a lost acked write, a read from the future) is refuted;
- the precondition: duplicate write values are an error on the strong
  check, while the weak checks still accept them.
"""

import math
from collections import Counter
from dataclasses import replace
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency.checkers import (UNTRACKED, _Item, _items_for_key,
                                        check_history,
                                        check_linearizable_key)
from repro.consistency.history import History, HistoryOp, HistoryRecorder
from repro.core import experiment
from repro.core.runner import execute_cell
from repro.core.sweep import CAMPAIGNS, campaign_cells
from repro.sim.kernel import Environment

pytestmark = pytest.mark.hashseed


# Wing & Gong's interval search, unchanged from the checker the zone check
# replaced: the reference verdict.
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


def _linearizes(ops: list[HistoryOp]) -> bool:
    """The reference verdict: an exhaustive search, no state budget."""
    verdict, _ = _search(_items_for_key(ops), max_states=math.inf)
    return verdict


#: A read returns one of the generated writes' tags (``w0`` ... — failed
#: writes' too), a pre-run value, or no row.
READ_VALUES = st.one_of(st.integers(0, 3).map(lambda i: f"w{i}"),
                        st.just("pre-run"), st.none())
GRID = st.integers(0, 6)
SPAN = st.integers(0, 3)
WRITES = st.lists(st.tuples(GRID, SPAN, st.sampled_from(
    ["ok", "ok", "fail", "indeterminate"])), max_size=4)
READS = st.lists(st.tuples(GRID, SPAN, READ_VALUES), max_size=5)


def _ops(writes, reads) -> list[HistoryOp]:
    """One key's sub-history, in the order ``History.per_key`` gives."""
    history = History()
    for i, (start, span, outcome) in enumerate(writes):
        history.add(HistoryOp(
            op_id=i + 1, session=f"s{i}", kind="write", key="k",
            invoke_s=float(start), response_s=float(start + span),
            outcome=outcome, value=f"w{i}"))
    for i, (start, span, value) in enumerate(reads, len(writes) + 1):
        history.add(HistoryOp(
            op_id=i, session=f"s{i}", kind="read", key="k",
            invoke_s=float(start), response_s=float(start + span),
            outcome="ok", value=value))
    return history.per_key().get("k", [])


def test_zone_check_agrees_with_the_search():
    verdicts = Counter()

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(WRITES, READS)
    # Ties the generator rarely hits: two forward zones that only touch
    # (write 0's value must hold over (1, 3), write 1's over (3, 5)), and
    # a one-instant zone at the instant a forward zone opens: both
    # linearize.
    @example([(0, 1, "ok"), (2, 1, "ok")], [(3, 1, "w0"), (5, 1, "w1")])
    @example([(0, 1, "ok"), (1, 0, "ok")], [(4, 1, "w0")])
    def agrees(writes, reads):
        ops = _ops(writes, reads)
        expected = _linearizes(ops)
        verdicts[expected] += 1
        violation = check_linearizable_key("k", ops)
        assert (violation is None) == expected, (ops, violation)
        if violation is not None:
            assert violation.kind == "linearizability"
            assert math.isfinite(violation.at_s)

    agrees()
    # Neither verdict may pass vacuously.
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


# -- non-vacuity on a real hot key -------------------------------------------

@pytest.fixture(scope="module")
def hot_key():
    """The most-written key of one ``check --quick --cl QUORUM`` cell's
    history, recorded by the oracle instrument, and that key's ops."""
    histories = []
    plain = experiment.build_consistency_report

    def capture(history, **kwargs):
        histories.append(history)
        return plain(history, **kwargs)

    cell = campaign_cells("check", "cassandra", CAMPAIGNS["check"].quick,
                          cl="QUORUM", seeds=(1,))[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "build_consistency_report", capture)
        report = execute_cell(cell)["runs"][0]["consistency"]
    assert report["strong"] and report["checked"]["linearizability"]
    per_key = histories[0].per_key()
    key = max(sorted(per_key), key=lambda k: sum(
        op.kind == "write" for op in per_key[k]))
    return key, per_key[key]


def _acked(ops):
    return [op for op in ops if op.kind == "write" and op.outcome == "ok"]


def _stale(read, ops):
    """The freshest acked write superseded by an acked write that
    completed before ``read`` was invoked."""
    superseded = [old for new in _acked(ops)
                  if new.response_s < read.invoke_s
                  for old in _acked(ops) if old.response_s < new.invoke_s]
    return [max(superseded, key=lambda w: (w.response_s, w.op_id)).value
            ] if superseded else []


def _lost(read, ops):
    """No row, when an acked write completed before ``read`` was
    invoked."""
    return [None] if any(w.response_s < read.invoke_s
                         for w in _acked(ops)) else []


def _future(read, ops):
    """The first write invoked after ``read`` responded."""
    later = [w for w in ops if w.kind == "write" and w.outcome != "fail"
             and w.invoke_s > read.response_s]
    return [min(later, key=lambda w: (w.invoke_s, w.op_id)).value
            ] if later else []


@pytest.mark.parametrize("mutation", [_stale, _lost, _future],
                         ids=["stale_read", "lost_acked_write",
                              "read_from_the_future"])
def test_every_single_read_mutation_of_the_hot_key_is_refuted(hot_key,
                                                              mutation):
    """Each read that can carry the mutation is re-pointed, one at a
    time, and every mutated history must be refuted."""
    key, ops = hot_key
    assert sum(op.kind == "write" for op in ops) >= 20
    assert check_linearizable_key(key, ops) is None
    refuted = 0
    for at, op in enumerate(ops):
        if op.kind != "read" or op.outcome != "ok":
            continue
        for value in mutation(op, ops):
            mutated = list(ops)
            mutated[at] = replace(op, value=value)
            assert check_linearizable_key(key, mutated) is not None, op
            refuted += 1
    # A mutation no read can carry proves nothing.
    assert refuted > 0


# -- the precondition ----------------------------------------------------------

class _Register:
    """A one-register DbBinding returning its last write, timestamped."""

    def __init__(self, env) -> None:
        self.env = env
        self.stored = None

    def write(self, key, value, size):
        yield self.env.timeout(0.01)
        self.stored = (value, self.env.now)

    def read(self, key, size):
        yield self.env.timeout(0.01)
        return self.stored

    def scan(self, start_key, limit, record_bytes):
        yield self.env.timeout(0.01)
        return []


def test_duplicate_write_values_fail_the_strong_check_loudly():
    env = Environment()
    recorder = HistoryRecorder(_Register(env), env, tag_writes=False)

    def client():
        for _ in range(2):
            yield from recorder.write("user1", "same", 100)
            yield from recorder.read("user1", 100)

    env.run(until=env.process(client()))
    with pytest.raises(ValueError, match="user1"):
        check_history(recorder.history, strong=True)
    # The weak checks need no unique values (StalenessProbe relies on it).
    assert not check_history(recorder.history, strong=False).violations
