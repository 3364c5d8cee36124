"""Properties of admission to a bounded stage (:class:`Admission`, and
:class:`Served` on top of it) under random arrivals, hold times,
deadlines and cancellations: every request is accounted for exactly
once, the stage never holds or queues more than it was sized for, grants
are first come first served among the waiters still alive, and when the
traffic has drained nothing is left behind — no holder, no ghost.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment, ModelledFailure, Timeout
from repro.sim.resources import (Admission, BoundedResource, Overloaded,
                                 Served)

pytestmark = pytest.mark.hashseed

MS = 1e-3


class Expired(ModelledFailure):
    """What a waiter fails with here (the models use DeadlineExceeded)."""


#: (arrival ms, hold ms, patience ms or None, cancel after ms or None,
#: through ``Served``?) — small integers, so instants collide often.
REQUESTS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 15),
              st.none() | st.integers(0, 25), st.none() | st.integers(0, 25),
              st.booleans()),
    max_size=40)


@given(capacity=st.integers(1, 4), max_queue=st.integers(0, 4),
       requests=REQUESTS)
@settings(max_examples=300, deadline=None)
def test_every_request_is_accounted_for_and_nothing_leaks(
        capacity, max_queue, requests):
    env = Environment()
    pool = BoundedResource(env, capacity, max_queue)
    counts = Counter()
    waiting = []        # claims queued and not yet heard from, oldest first
    withdrawn = set()   # claims their owner cancelled while they waited

    def live():
        # A claim whose slot is triggered has left the queue even if its
        # grant has not been dispatched yet.
        return [claim for claim in waiting if not claim.slot.triggered]

    def check():
        assert len(pool.users) <= capacity
        assert pool.queue_len == len(live()) <= max_queue

    def granted(claim):
        counts["granted"] += 1
        if claim in waiting:
            # First come, first served, among the waiters still alive: an
            # older claim may only be waiting to *hear* that its slot was
            # granted (a verdict that races a deadline is one queue hop
            # behind a bare grant).
            assert all(older.slot.triggered
                       for older in waiting[:waiting.index(claim)])
            waiting.remove(claim)
        assert claim.slot in pool.users
        check()

    def decided(claim):
        """A queued claim's verdict, for a holder that releases itself."""
        if claim in withdrawn:
            claim._defused = True   # whatever it says, nobody is waiting
            return
        if claim._ok:
            assert claim.value is claim.slot
            granted(claim)
            hold = holds[claim]
            Timeout(env, hold).callbacks.append(
                lambda _: pool.release(claim.slot))
        else:
            expired(claim)

    def expired(claim):
        claim._defused = True
        counts["expired"] += 1
        assert type(claim.value) is Expired
        assert env.now >= deadlines[claim] - 1e-9
        waiting.remove(claim)
        assert claim.slot not in pool.users
        check()

    def withdraw(claim):
        if claim.processed or claim in withdrawn:
            return
        withdrawn.add(claim)
        waiting.remove(claim)
        counts["cancelled"] += 1
        pool.release(claim.slot)    # queued, or granted a moment ago
        check()

    holds, deadlines = {}, {}

    def arrive(hold, patience, cancel, served):
        counts["offered"] += 1
        deadline = None if patience is None else env.now + patience * MS
        full = len(pool.users) == capacity
        try:
            claim = Admission(pool, deadline, Expired)
        except Overloaded:
            counts["shed"] += 1
            assert full and len(live()) == max_queue
            return check()
        except Expired:
            counts["expired"] += 1
            assert full and patience == 0
            return check()
        holds[claim], deadlines[claim] = hold * MS, deadline
        if not claim.processed:
            assert full
            waiting.append(claim)
        if served:
            def operate():
                granted(claim)
                return Timeout(env, hold * MS)

            def finished(visit):
                if not visit._ok:
                    visit._defused = True
                    assert visit.value is claim.value
                    expired(claim)
                check()

            visit = Served(env, claim, operate, ())
            assert not visit.processed
            visit.callbacks.append(finished)
        elif claim.processed:
            decided(claim)
        else:
            claim.callbacks.append(decided)
            if cancel is not None:
                Timeout(env, cancel * MS).callbacks.append(
                    lambda _: withdraw(claim))
        check()

    for at, hold, patience, cancel, served in requests:
        Timeout(env, at * MS).callbacks.append(
            lambda _, args=(hold, patience, cancel, served): arrive(*args))
    env.run()

    assert counts["offered"] == len(requests) == (
        counts["granted"] + counts["shed"] + counts["expired"]
        + counts["cancelled"])
    assert pool.shed == counts["shed"]
    assert pool.users == [] and pool._waiting == [] and pool._ghosts == 0
    assert pool.queue_len == 0 and not waiting
