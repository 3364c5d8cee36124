"""Unit tests for the group-commit WAL."""

import hashlib
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import AllOf
from tests.conftest import build_wal, schedule_appends


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestGroupCommitWal:
    def test_single_append_completes(self):
        env, _, wal = build_wal()

        def scenario():
            yield from wal.append(500)
            return env.now

        assert drive(env, scenario()) > 0
        assert wal.appends == 1

    def test_concurrent_appends_batch(self):
        env, _, wal = build_wal()

        def one_append():
            yield from wal.append(100)

        def scenario():
            procs = [env.process(one_append()) for _ in range(20)]
            yield AllOf(env, procs)

        drive(env, scenario())
        assert wal.appends == 20
        # Twenty simultaneous appends cannot need twenty pipeline rounds.
        assert wal.batches < 20

    def test_rounds_overlap_under_load(self):
        """Sustained append streams keep several rounds in flight, so the
        aggregate rate beats one-round-at-a-time serialization."""
        env, _, wal = build_wal(pipeline_depth=4)
        done = []

        def appender(n):
            for _ in range(n):
                yield from wal.append(200)
            done.append(env.now)

        def scenario():
            procs = [env.process(appender(30)) for _ in range(8)]
            yield AllOf(env, procs)
            return env.now

        elapsed_deep = drive(env, scenario())

        env2, _, wal2 = build_wal(pipeline_depth=1)
        done2 = []

        def appender2(n):
            for _ in range(n):
                yield from wal2.append(200)
            done2.append(env2.now)

        def scenario2():
            procs = [env2.process(appender2(30)) for _ in range(8)]
            yield AllOf(env2, procs)
            return env2.now

        elapsed_shallow = env2.run(until=env2.process(scenario2()))
        assert elapsed_deep <= elapsed_shallow

    def test_wal_rolls_segments(self):
        env, _, wal = build_wal()

        def scenario():
            # Enough volume to exceed one segment (8 MB).
            for _ in range(10):
                yield from wal.append(1024 * 1024)

        drive(env, scenario())
        assert wal._wal_file is not None
        assert wal._wal_file.size_bytes <= 9 * 1024 * 1024


# -- group commit semantics as properties ----------------------------------

def run_appends(arrivals, rf=2, pipeline_depth=4):
    """Run ``(gap_s, size)`` arrivals — each ``gap_s`` after the one
    before — to quiescence.  Returns the WAL, the ack log ``[(append
    index, ack instant)]`` in ack order, the arrival instants by index,
    the sizes of the pipeline rounds in start order, and the most rounds
    that were ever in flight at once."""
    env, _, wal = build_wal(rf=rf, pipeline_depth=pipeline_depth)
    rounds, in_flight = [], [0]
    plain_append = wal.dfs.append

    def spying_append(file, size, sync=False):
        write = plain_append(file, size, sync)
        rounds.append(size)
        in_flight.append(in_flight[-1] + 1)
        write.callbacks.append(
            lambda _write: in_flight.append(in_flight[-1] - 1))
        return write

    wal.dfs.append = spying_append
    arrived = list(accumulate(gap_s for gap_s, _ in arrivals))
    log = schedule_appends(
        env, wal, [(at, size) for at, (_, size) in zip(arrived, arrivals)])
    env.run()
    assert in_flight[-1] == 0
    return (wal, [(index, at) for index, at, *_ in log], arrived, rounds,
            max(in_flight))


def recorded_arrivals(seed):
    """Bursts and lulls; a few appends big enough to travel in chunks
    and, together, to roll the segment."""
    rng = random.Random(seed)
    return [(rng.choice((0.0, 2e-5, 1e-3, 5e-2)),
             rng.choice((200, 1_000, 30_000, 1_500_000)))
            for _ in range(60)]


class TestGroupCommitProperties:
    @given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 3_000_000)),
                    min_size=1, max_size=25),
           st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_every_append_is_acked_once_within_the_depth(
            self, arrivals, rf, pipeline_depth):
        """Any sizes — multi-chunk rounds, segment rolls — at any pace."""
        arrivals = [(gap_us * 1e-6, size) for gap_us, size in arrivals]
        wal, acks, arrived, rounds, peak = run_appends(
            arrivals, rf, pipeline_depth)
        assert sorted(index for index, _ in acks) \
            == list(range(len(arrivals)))
        assert all(at > arrived[index] for index, at in acks)
        assert 1 <= peak <= pipeline_depth
        assert len(wal._in_flight.users) == 0 and not wal._pending
        assert (wal.batches, wal.appends) == (len(rounds), len(acks))
        assert sum(rounds) == sum(size for _, size in arrivals)

    @given(st.lists(st.tuples(st.integers(0, 400), st.integers(1, 2_000)),
                    min_size=1, max_size=30),
           st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_acks_are_fifo(self, arrivals, rf, pipeline_depth):
        """One-packet rounds down one pipeline cannot overtake each other
        (every channel they share is booked first come, first served), so
        appends are acked in arrival order, batch by batch."""
        arrivals = [(gap_us * 1e-6, size) for gap_us, size in arrivals]
        wal, acks, _, rounds, peak = run_appends(arrivals, rf, pipeline_depth)
        assert [index for index, _ in acks] == list(range(len(arrivals)))
        assert [at for _, at in acks] == sorted(at for _, at in acks)
        assert peak <= pipeline_depth
        # One ack instant per round: a batch is acked as a whole.
        assert len({at for _, at in acks}) == len(rounds) == wal.batches

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ack_instants_equal_the_recorded_ones(self, seed, golden):
        """(appends, rounds, last ack instant, sha256 of the ack log), as
        when the writer and every round were processes."""
        wal, acks, _, rounds, _ = run_appends(recorded_arrivals(seed), rf=3)
        digest = hashlib.sha256(repr(acks).encode()).hexdigest()
        golden((len(acks), len(rounds), acks[-1][1], digest))
