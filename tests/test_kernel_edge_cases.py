"""Additional kernel edge cases discovered while building the databases."""

import pytest

from repro.sim.kernel import AllOf, AnyOf, Environment, SimulationError
from repro.sim.resources import Resource


class TestConditionEdgeCases:
    def test_condition_over_already_processed_events(self, env):
        done = env.event()
        done.succeed("early")
        env.run()

        def proc(env):
            result = yield AllOf(env, [done, env.timeout(1, "late")])
            return sorted(str(v) for v in result.values())

        assert env.run(until=env.process(proc(env))) == ["early", "late"]

    def test_nested_conditions(self, env):
        def proc(env):
            inner = AnyOf(env, [env.timeout(5, "slow"), env.timeout(1, "a")])
            outer = AllOf(env, [inner, env.timeout(2, "b")])
            yield outer
            return env.now

        assert env.run(until=env.process(proc(env))) == 2.0

    def test_condition_failure_is_defused_for_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("expected")

        def waiter(env):
            try:
                yield AnyOf(env, [env.process(failing(env)),
                                  env.timeout(10)])
            except ValueError:
                return "caught"

        assert env.run(until=env.process(waiter(env))) == "caught"
        env.run()  # nothing else blows up afterwards


class TestProcessEdgeCases:
    def test_two_processes_waiting_on_same_event(self, env):
        shared = env.event()
        results = []

        def waiter(env, name):
            value = yield shared
            results.append((name, value, env.now))

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))

        def firer(env):
            yield env.timeout(3)
            shared.succeed("go")

        env.process(firer(env))
        env.run()
        assert results == [("a", "go", 3.0), ("b", "go", 3.0)]

    def test_process_waiting_on_failed_shared_event(self, env):
        shared = env.event()
        outcomes = []

        def waiter(env, name):
            try:
                yield shared
            except RuntimeError:
                outcomes.append(name)

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))

        def firer(env):
            yield env.timeout(1)
            shared.fail(RuntimeError("nope"))

        env.process(firer(env))
        env.run()
        assert outcomes == ["a", "b"]

    def test_immediate_return_process(self, env):
        def proc(env):
            return "instant"
            yield  # pragma: no cover

        assert env.run(until=env.process(proc(env))) == "instant"

    def test_non_generator_process_rejected(self, env):
        for not_a_generator in (None, 42, [env.timeout(1)], lambda: None):
            with pytest.raises(SimulationError, match="is not a generator"):
                env.process(not_a_generator)

    def test_generator_like_object_accepted(self, env):
        """The plain-generator fast path falls back to duck typing."""
        class Countdown:
            def __init__(self, n):
                self.n = n

            def send(self, _value):
                if self.n == 0:
                    raise StopIteration("liftoff")
                self.n -= 1
                return env.timeout(1)

            def throw(self, exc):  # pragma: no cover - never interrupted
                raise exc

        assert env.run(until=env.process(Countdown(3))) == "liftoff"
        assert env.now == 3

    def test_deeply_chained_yield_from(self, env):
        def level(n):
            if n == 0:
                yield env.timeout(1)
                return 0
            result = yield from level(n - 1)
            return result + 1

        def proc(env):
            result = yield from level(50)
            return result

        assert env.run(until=env.process(proc(env))) == 50

    def test_event_yielded_after_a_caught_non_event_is_waited_for(self, env):
        """The error for a yielded non-event is thrown in like a failed
        event: what the process yields after catching it is what it
        waits for, not a replay of the event before."""
        def proc(env):
            first = yield env.timeout(1, "first")
            assert first == "first"
            try:
                yield 42
            except SimulationError:
                pass
            second = yield env.timeout(5, "second")
            return second, env.now

        assert env.run(until=env.process(proc(env))) == ("second", 6.0)

    def test_non_event_yielded_again_after_catching_is_refused(self, env):
        def proc(env):
            try:
                yield "not an event"
            except SimulationError:
                pass
            yield "still not an event"

        with pytest.raises(SimulationError, match="still not an event"):
            env.run(until=env.process(proc(env)))


class TestResourceEdgeCases:
    def test_release_is_idempotent(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            req = res.request()
            yield req
            res.release(req)
            res.release(req)  # double release must not corrupt state
            return len(res.users)

        assert env.run(until=env.process(proc(env))) == 0

    def test_interleaved_priorities_and_cancellations(self, env):
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        def worker(env, name, priority):
            with res.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(0.1)

        def canceller(env):
            req = res.request(priority=-5)  # would be first
            yield env.timeout(0.5)
            req.cancel()

        env.process(holder(env))

        def submit(env):
            yield env.timeout(0.01)
            env.process(canceller(env))
            env.process(worker(env, "low", 10))
            env.process(worker(env, "high", 0))

        env.process(submit(env))
        env.run()
        assert order == ["high", "low"]


class TestDeterminismUnderLoad:
    def test_complex_scenario_is_bit_reproducible(self):
        def run_once():
            env = Environment()
            res = Resource(env, capacity=2)
            trace = []

            def worker(env, worker_id):
                for i in range(10):
                    with res.request(priority=worker_id % 3) as req:
                        yield req
                        yield env.timeout(0.01 * ((worker_id + i) % 7 + 1))
                        trace.append((round(env.now, 9), worker_id, i))

            for worker_id in range(8):
                env.process(worker(env, worker_id))
            env.run()
            return trace

        assert run_once() == run_once()


class TestAbandonedEventFailure:
    """A waiter stops waiting on a pending event when an ``AnyOf`` over
    it is decided by another event — how a hedged read leaves its loser.
    Its subscription stays on the abandoned event; when that event later
    ``fail()``s, the run must go on, and a process genuinely waiting on
    the event must still see the failure."""

    def test_terminated_waiter_defuses_later_failure(self, env):
        shared = env.event()

        def waiter(env):
            yield AnyOf(env, [shared, env.timeout(0.1)])
            return "done early"  # terminates; the subscription stays

        def failer(env):
            yield env.timeout(0.5)
            shared.fail(RuntimeError("boom"))

        victim = env.process(waiter(env))
        env.process(failer(env))
        assert env.run(until=victim) == "done early"
        env.run()

    def test_live_second_waiter_still_sees_failure(self, env):
        """Defusing on behalf of a stale waiter must not swallow the
        exception for a process genuinely waiting on the event."""
        shared = env.event()
        outcomes = []

        def abandoner(env):
            yield AnyOf(env, [shared, env.timeout(0.1)])
            yield env.timeout(10)  # moved on to a different event

        def live_waiter(env):
            try:
                yield shared
            except RuntimeError:
                outcomes.append("caught")

        def failer(env):
            yield env.timeout(0.5)
            shared.fail(RuntimeError("boom"))

        env.process(abandoner(env))
        env.process(live_waiter(env))
        env.process(failer(env))
        env.run()
        assert outcomes == ["caught"]


class TestPendingTimeoutState:
    """Regression: ``Timeout`` set ``_value`` eagerly in ``__init__``, so
    ``triggered`` was True from creation and ``env.run(until=
    env.timeout(10))`` returned immediately at ``now=0.0``."""

    def test_timeout_not_triggered_until_fired(self, env):
        timer = env.timeout(5)
        assert not timer.triggered
        env.run()
        assert timer.triggered and timer.processed

    def test_run_until_timeout_advances_clock(self, env):
        env.timeout(3)  # unrelated earlier event
        result = env.run(until=env.timeout(10, "stop-value"))
        assert env.now == 10.0
        assert result == "stop-value"

    def test_run_until_timeout_with_busy_queue(self, env):
        fired = []

        def ticker(env):
            while True:
                yield env.timeout(1)
                fired.append(env.now)

        env.process(ticker(env))
        env.run(until=env.timeout(4.5))
        assert env.now == 4.5
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_timeout_cannot_be_triggered_manually(self, env):
        timer = env.timeout(1)
        with pytest.raises(SimulationError):
            timer.succeed()
        with pytest.raises(SimulationError):
            timer.fail(RuntimeError("no"))

    def test_anyof_acks_or_timeout_semantics(self, env):
        """The guard-rail the ISSUE names: AnyOf(acks | timeout) must
        still resolve to the acks when they win and to the timeout when
        they lose."""
        def acks_win(env):
            acks = AllOf(env, [env.timeout(1, "a"), env.timeout(2, "b")])
            timer = env.timeout(10, "late")
            result = yield AnyOf(env, [acks, timer])
            assert acks in result and timer not in result
            return env.now

        assert env.run(until=env.process(acks_win(env))) == 2.0

        env2 = Environment()

        def timer_wins(env):
            slow = AllOf(env, [env.timeout(30, "slow")])
            timer = env.timeout(0.5, "timeout")
            result = yield AnyOf(env, [slow, timer])
            assert timer in result and slow not in result
            return env.now

        assert env2.run(until=env2.process(timer_wins(env2))) == 0.5

    def test_condition_collect_excludes_pending_timeouts(self, env):
        """Condition values must not leak future timeouts (the old
        workaround in ``Condition._collect`` is now structural)."""
        def proc(env):
            late = env.timeout(100, "late")
            result = yield AnyOf(env, [env.timeout(1, "early"), late])
            assert late not in result
            return sorted(result.values())

        assert env.run(until=env.process(proc(env))) == ["early"]
