"""Unit tests for the NIC/switch model and the RPC transport."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec, DeadNodeError, RpcTimeout
from repro.sim.kernel import AllOf, Environment
from repro.sim.rng import RngRegistry
from tests.conftest import flat_cluster


class TestNic:
    """The NIC and switch model, through ``Cluster.leg`` — the one way
    bytes cross the network."""

    def _elapsed(self, size, **leg_kwargs):
        cluster = flat_cluster()
        env = cluster.env
        env.run()  # the nodes' own start-up events

        def send(env):
            start = env.now
            yield cluster.leg(cluster.node(0), cluster.node(1), size,
                                   **leg_kwargs)
            return env.now - start

        return env.run(until=env.process(send(env))), cluster

    def test_transit_time_has_floor_and_bandwidth_term(self):
        small, cluster = self._elapsed(100)
        large, _ = self._elapsed(1_000_000)
        assert small >= cluster.spec.node.network.base_latency_s
        assert large > small + 0.001  # 1 MB at ~117 MB/s dominates

    @pytest.mark.parametrize("on_arrival", [False, True])
    def test_leg_is_the_sum_of_its_stages(self, on_arrival):
        size, src_cpu, dst_cpu = 5_000, 3e-5, 7e-5
        elapsed, cluster = self._elapsed(size, src_cpu_s=src_cpu,
                                         dst_cpu_s=dst_cpu,
                                         on_arrival=on_arrival)
        net = cluster.spec.node.network
        wire = (size + net.header_bytes) / net.bandwidth_bps
        assert elapsed == pytest.approx(
            src_cpu + wire + net.base_latency_s + wire + dst_cpu, abs=1e-12)
        # One timeout when booked ahead, two when the receiving half
        # waits for the arrival.
        reference = flat_cluster().env
        reference.run()

        def timeouts(env, n):
            for _ in range(n):
                yield env.timeout(1e-4)

        reference.run(until=reference.process(
            timeouts(reference, 2 if on_arrival else 1)))
        assert cluster.env.processed_events == reference.processed_events
        assert cluster.node(0).cpu_time == pytest.approx(src_cpu)
        assert cluster.node(1).cpu_time == pytest.approx(dst_cpu)

    def test_egress_serializes_fanout(self):
        cluster = flat_cluster(n_nodes=5)
        env = cluster.env
        finish = []

        def send(env, dst):
            yield cluster.leg(cluster.node(0), dst, 500_000)
            finish.append(env.now)

        for node_id in range(1, 5):
            env.process(send(env, cluster.node(node_id)))
        env.run()
        # Four half-MB messages cannot leave a single NIC simultaneously.
        assert finish == sorted(finish)
        assert finish[-1] > finish[0] * 2

    @pytest.mark.parametrize("on_arrival", [False, True])
    def test_ingress_is_fifo_on_a_busy_nic(self, on_arrival):
        cluster = flat_cluster(n_nodes=4)
        env = cluster.env
        finish = {}

        def send(env, src_id):
            yield cluster.leg(cluster.node(src_id), cluster.node(0),
                                   500_000, on_arrival=on_arrival)
            finish[src_id] = env.now

        for src_id in (1, 2, 3):
            env.process(send(env, src_id))
        env.run()
        net = cluster.spec.node.network
        wire = (500_000 + net.header_bytes) / net.bandwidth_bps
        # Three senders, one receiving channel: each waits for the one
        # before it, in send order.
        times = [finish[i] for i in (1, 2, 3)]
        assert times == sorted(times)
        assert times[2] == pytest.approx(
            wire + net.base_latency_s + 3 * wire)

    def test_byte_counters(self):
        cluster = flat_cluster()
        env = cluster.env
        a, b = cluster.node(0), cluster.node(1)

        def send(env):
            yield cluster.leg(a, b, 1234)

        env.process(send(env))
        env.run()
        assert a.nic.bytes_sent == 1234
        assert b.nic.bytes_received == 1234
        assert cluster.network.messages == 1
        net = cluster.spec.node.network
        wire = (1234 + net.header_bytes) / net.bandwidth_bps
        assert a.nic.busy_s == pytest.approx(wire)
        assert b.nic.busy_s == pytest.approx(wire)


class TestRpc:
    def make(self, n=3):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=n), RngRegistry(3))
        return env, cluster

    def test_round_trip_returns_handler_value(self):
        env, cluster = self.make()

        def handler(payload):
            yield from cluster.node(1).cpu_work(1e-5)
            return payload * 2

        cluster.node(1).register("double", handler)

        def client(env):
            result = yield from cluster.call(cluster.node(0), cluster.node(1),
                                             "double", 21)
            return result

        assert env.run(until=env.process(client(env))) == 42

    def test_rpc_costs_time(self):
        env, cluster = self.make()

        def handler(payload):
            return payload
            yield  # pragma: no cover

        cluster.node(1).register("echo", handler)

        def client(env):
            yield from cluster.call(cluster.node(0), cluster.node(1), "echo",
                                    "x", request_bytes=1000,
                                    response_bytes=1000)
            return env.now

        elapsed = env.run(until=env.process(client(env)))
        assert elapsed > 2 * cluster.spec.node.network.base_latency_s * 0.5

    def test_missing_verb_raises(self):
        env, cluster = self.make()

        def client(env):
            yield from cluster.call(cluster.node(0), cluster.node(1), "nope")

        with pytest.raises(LookupError):
            env.run(until=env.process(client(env)))

    def test_dead_target_times_out(self):
        env, cluster = self.make()
        cluster.kill(1)

        def handler(payload):
            return payload
            yield  # pragma: no cover

        cluster.node(1).register("echo", handler)

        def client(env):
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1),
                                        "echo", timeout=0.25)
            except RpcTimeout:
                return ("timeout", env.now)

        kind, when = env.run(until=env.process(client(env)))
        assert kind == "timeout"
        assert when >= 0.25

    def test_dead_target_without_timeout_fails_fast(self):
        env, cluster = self.make()
        cluster.kill(1)

        def handler(payload):
            return payload
            yield  # pragma: no cover

        cluster.node(1).register("echo", handler)

        def client(env):
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1), "echo")
            except DeadNodeError:
                return "dead"

        assert env.run(until=env.process(client(env))) == "dead"

    def test_slow_handler_times_out_but_restartable(self):
        env, cluster = self.make()

        def slow(payload):
            yield env.timeout(10)
            return "late"

        cluster.node(1).register("slow", slow)

        def client(env):
            try:
                yield from cluster.call(cluster.node(0), cluster.node(1),
                                        "slow", timeout=1.0)
            except RpcTimeout:
                return env.now

        assert env.run(until=env.process(client(env))) == pytest.approx(1.0)

    def test_call_async_fanout_collects_errors_as_values(self):
        env, cluster = self.make(4)
        cluster.kill(2)

        def handler(payload):
            return "ok"
            yield  # pragma: no cover

        for node_id in (1, 2, 3):
            cluster.node(node_id).register("ping", handler)

        def client(env):
            procs = [cluster.call_async(cluster.node(0), cluster.node(i),
                                        "ping", timeout=0.5)
                     for i in (1, 2, 3)]
            yield AllOf(env, procs)
            return [p.value for p in procs]

        values = env.run(until=env.process(client(env)))
        assert values[0] == "ok" and values[2] == "ok"
        assert isinstance(values[1], RpcTimeout)

    def test_kill_and_restart(self):
        env, cluster = self.make()
        cluster.kill(1)
        assert not cluster.node(1).alive
        cluster.restart(1)
        assert cluster.node(1).alive

    def test_duplicate_verb_registration_rejected(self):
        _, cluster = self.make()

        def handler(payload):
            return None
            yield  # pragma: no cover

        cluster.node(1).register("v", handler)
        with pytest.raises(ValueError):
            cluster.node(1).register("v", handler)
