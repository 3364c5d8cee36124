"""Unit tests for Resource / BoundedResource."""

import pytest

from repro.sim.kernel import SimulationError
from repro.sim.resources import BoundedResource, Overloaded, Resource


class TestResource:
    def test_capacity_serializes_users(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(env, name, hold):
            with res.request() as req:
                yield req
                log.append((env.now, name))
                yield env.timeout(hold)

        env.process(worker(env, "a", 2))
        env.process(worker(env, "b", 3))
        env.process(worker(env, "c", 1))
        env.run()
        assert log == [(0.0, "a"), (2.0, "b"), (5.0, "c")]

    def test_multiple_slots_run_concurrently(self, env):
        res = Resource(env, capacity=2)
        done = []

        def worker(env, name):
            with res.request() as req:
                yield req
                yield env.timeout(4)
                done.append((env.now, name))

        for name in "abcd":
            env.process(worker(env, name))
        env.run()
        assert done == [(4.0, "a"), (4.0, "b"), (8.0, "c"), (8.0, "d")]

    def test_invalid_capacity_rejected(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_release_via_context_manager(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            with res.request() as req:
                yield req
                yield env.timeout(1)
            return len(res.users)

        assert env.run(until=env.process(worker(env))) == 0

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        served = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = res.request()
            yield env.timeout(1)
            req.cancel()
            served.append("gave-up")

        def patient(env):
            with res.request() as req:
                yield req
                served.append(("served", env.now))

        env.process(holder(env))
        env.process(impatient(env))
        env.process(patient(env))
        env.run()
        assert "gave-up" in served
        assert ("served", 10.0) in served

    def test_queue_len_counts_waiters(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(5)

        def waiter(env):
            with res.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.process(waiter(env))
        env.run(until=1.0)
        assert res.queue_len == 2 and len(res.users) == 1


    def test_queue_len_excludes_cancelled_waiters(self, env):
        # Regression: a lazily-deleted (cancelled) request stays in the
        # heap until it surfaces, but it must never count as a waiter —
        # otherwise shed decisions and queue statistics see ghosts.
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = res.request()
            yield env.timeout(1)
            req.cancel()

        env.process(holder(env))
        env.process(impatient(env))

        def check(env):
            yield env.timeout(0.5)
            assert res.queue_len == 1  # still waiting
            yield env.timeout(1.0)
            assert res.queue_len == 0  # cancelled: ghost, not a waiter
            assert len(res._waiting) == 1  # but the heap entry remains

        proc = env.process(check(env))
        env.run(until=proc)

    def test_double_cancel_counts_one_ghost(self, env):
        res = Resource(env, capacity=1)
        res.request()  # holds the only slot
        queued = res.request()
        queued.cancel()
        queued.cancel()
        assert res.queue_len == 0
        assert res._ghosts == 1


class TestBoundedResource:
    def test_sheds_when_queue_full(self, env):
        res = BoundedResource(env, capacity=1, max_queue=1)

        def scenario(env):
            first = res.request()   # takes the slot
            res.request()           # fills the queue
            with pytest.raises(Overloaded):
                res.request()       # shed
            assert res.shed == 1
            yield first

        env.run(until=env.process(scenario(env)))

    def test_cancelled_waiter_frees_queue_room(self, env):
        res = BoundedResource(env, capacity=1, max_queue=1)

        def scenario(env):
            res.request()
            queued = res.request()
            queued.cancel()         # ghost: no longer a live waiter
            third = res.request()   # admitted — no Overloaded
            assert res.shed == 0
            assert res.queue_len == 1
            yield env.timeout(0)
            return third

        env.run(until=env.process(scenario(env)))

    def test_zero_queue_rejects_all_waiting(self, env):
        res = BoundedResource(env, capacity=2, max_queue=0)

        def scenario(env):
            a = res.request()
            b = res.request()
            with pytest.raises(Overloaded):
                res.request()
            res.release(a)
            res.release(b)
            yield env.timeout(0)

        env.run(until=env.process(scenario(env)))

    def test_invalid_max_queue_rejected(self, env):
        with pytest.raises(SimulationError):
            BoundedResource(env, capacity=1, max_queue=-1)


class TestPriorityResource:
    """The wait queue's order: lowest ``priority`` first (a disk's
    foreground reads ahead of its background work), FIFO among equals."""

    def test_lower_priority_value_served_first(self, env):
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
                yield env.timeout(1)

        env.process(holder(env))

        def submit(env):
            yield env.timeout(0.1)
            env.process(worker(env, "background", 10))
            env.process(worker(env, "foreground", 0))

        env.process(submit(env))
        env.run()
        assert order == ["foreground", "background"]

    def test_fifo_within_same_priority(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, name):
            with res.request(priority=5) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        for name in ("first", "second", "third"):
            env.process(worker(env, name))
        env.run()
        assert order == ["first", "second", "third"]
