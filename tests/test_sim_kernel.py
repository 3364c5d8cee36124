"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import AllOf, AnyOf, Environment, SimulationError


class TestEvent:
    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed(42)
        env.run()
        assert event.ok and event.value == 42 and event.processed

    def test_fail_carries_exception(self, env):
        event = env.event()
        error = RuntimeError("boom")
        event.fail(error)
        event.defuse()
        env.run()
        assert not event.ok and event.value is error

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_unhandled_failure_crashes_run(self, env):
        env.event().fail(ValueError("nobody caught me"))
        with pytest.raises(ValueError):
            env.run()


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_ordering_is_chronological(self, env):
        fired = []
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: fired.append(d))
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, env):
        fired = []
        for tag in ("a", "b", "c"):
            env.timeout(1.0).callbacks.append(
                lambda e, t=tag: fired.append(t))
        env.run()
        assert fired == ["a", "b", "c"]


class TestProcess:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "done"

        assert env.run(until=env.process(proc(env))) == "done"

    def test_sequential_timeouts_accumulate(self, env):
        def proc(env):
            yield env.timeout(1)
            yield env.timeout(2)
            return env.now

        assert env.run(until=env.process(proc(env))) == 3.0

    def test_waiting_on_other_process(self, env):
        def inner(env):
            yield env.timeout(4)
            return "inner-value"

        def outer(env):
            result = yield env.process(inner(env))
            return result, env.now

        assert env.run(until=env.process(outer(env))) == ("inner-value", 4.0)

    def test_yield_non_event_raises_inside_process(self, env):
        def proc(env):
            yield 42

        process = env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run(until=process)

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise KeyError("inner")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except KeyError:
                return "caught"

        assert env.run(until=env.process(waiter(env))) == "caught"

    def test_unhandled_process_exception_crashes_run(self, env):
        def failing(env):
            yield env.timeout(1)
            raise KeyError("inner")

        env.process(failing(env))
        with pytest.raises(KeyError):
            env.run()

    def test_yield_already_processed_event_resumes_immediately(self, env):
        done = env.event()
        done.succeed("early")

        def proc(env):
            yield env.timeout(1)
            value = yield done
            return value, env.now

        assert env.run(until=env.process(proc(env))) == ("early", 1.0)


class TestConditions:
    def test_all_of_waits_for_slowest(self, env):
        def proc(env):
            yield AllOf(env, [env.timeout(1), env.timeout(5), env.timeout(3)])
            return env.now

        assert env.run(until=env.process(proc(env))) == 5.0

    def test_any_of_fires_on_fastest(self, env):
        def proc(env):
            result = yield AnyOf(env, [env.timeout(4, "slow"),
                                       env.timeout(1, "fast")])
            return list(result.values()), env.now

        assert env.run(until=env.process(proc(env))) == (["fast"], 1.0)

    def test_empty_all_of_fires_immediately(self, env):
        def proc(env):
            yield AllOf(env, [])
            return env.now

        assert env.run(until=env.process(proc(env))) == 0.0

    def test_condition_value_excludes_pending_events(self, env):
        def proc(env):
            slow = env.timeout(9, "slow")
            result = yield AnyOf(env, [env.timeout(1, "fast"), slow])
            assert slow not in result
            return sorted(result.values())

        assert env.run(until=env.process(proc(env))) == ["fast"]

    def test_failed_member_fails_condition(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("member failed")

        def proc(env):
            try:
                yield AllOf(env, [env.process(failing(env)), env.timeout(5)])
            except ValueError:
                return "caught", env.now

        assert env.run(until=env.process(proc(env))) == ("caught", 1.0)

    def test_mixed_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            AllOf(env, [env.timeout(1), other.timeout(1)])


class TestRun:
    def test_run_until_time_stops_clock_exactly(self, env):
        env.timeout(10)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_past_rejected(self, env):
        env.timeout(1)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=0.5)

    def test_run_exhausts_queue(self, env):
        env.timeout(2)
        env.timeout(7)
        env.run()
        assert env.now == 7.0
        assert not env._queue

    def test_run_until_never_triggering_event_raises(self, env):
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=env.event())

    def test_determinism(self):
        def build():
            env = Environment()
            order = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                order.append((name, env.now))

            for i in range(20):
                env.process(worker(env, f"w{i}", (i * 7) % 5 + 0.5))
            env.run()
            return order

        assert build() == build()
