"""The arithmetic of a message leg, pinned by a property and not only by
replay digests: random scripts of :meth:`Cluster.leg` calls are checked
against a reference written here from the five-stage definition in
DESIGN.md §3 "Message legs" — sender CPU, egress, switch hop, ingress,
receiver CPU, each starting where the one before ends, the receiving
half booked on arrival where the look-ahead rule says so.  Completion
instants must agree **bit for bit**, and when the traffic has drained
what was sent was received and the busy seconds add up: byte counters,
``busy_s``, per-node ``cpu_time`` and the message count equal the
reference's (ROADMAP 2(a)'s conservation, stated where the booking is
made).
"""

from heapq import heappop, heappush
from math import inf, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import DEFAULT_REGION_RTTS, GeoConfig
from repro.cluster.geo import LOCAL_LATENCY_S, WAN_BANDWIDTH_BPS, GeoCluster
from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import Cluster, ClusterSpec
from repro.energy.power import PowerManager, PowerSpec
from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.rng import RngRegistry

pytestmark = pytest.mark.hashseed

#: Two cores, so CPU reservations contend as the channels do.
NODE = NodeSpec(cores=2)
NET = NODE.network
N_NODES = 4

#: (seconds to advance first, src, dst, bytes, sender CPU, receiver CPU,
#: ``on_arrival``) — few distinct nodes and gaps shorter than a large
#: message's wire time, so every accumulator is found busy often.
LEGS = st.lists(
    st.tuples(st.sampled_from([0.0, 1e-6, 5e-5, 1e-3, 0.02]),
              st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1),
              st.integers(0, 200_000),
              st.sampled_from([0.0, 2.5e-5, 3e-3]),
              st.sampled_from([0.0, 2.5e-5, 3e-3]),
              st.booleans()).filter(lambda leg: leg[1] != leg[2]),
    max_size=40)


class _RefNode:
    """The accumulators of one machine, as DESIGN.md §3 names them."""

    def __init__(self, slowdown, cores=NODE.cores):
        self.cores = [0.0] * cores
        self.egress = self.ingress = self.busy_s = self.cpu_time = 0.0
        self.sent = self.received = 0
        self.slowdown = slowdown

    def cpu(self, seconds, at):
        core = self.cores.index(min(self.cores))
        self.cores[core] = max(at, self.cores[core]) + seconds
        self.cpu_time += seconds
        return self.cores[core]

    def wire(self, channel, size, at):
        start = max(at, getattr(self, channel))
        done = start + self.slowdown * (size + NET.header_bytes) \
            / NET.bandwidth_bps
        self.busy_s += done - start
        setattr(self, channel, done)
        return done

    def receive(self, size, cpu_s, at):
        self.received += size
        done = self.wire("ingress", size, at)
        return self.cpu(cpu_s, done) if cpu_s else done


def reference(script, nodes, hop, crosses):
    """Completion instant of every leg of ``script``.  A wait of ``d``
    seconds started at ``t`` ends at ``t + d``, which is not always the
    instant ``d`` was computed from — that rounding is the kernel's, so
    it is the reference's too."""
    now, done, landings = 0.0, {}, []

    def land(until):
        while landings and landings[0][0] <= until:
            at, i, dst, size, cpu_s = heappop(landings)
            done[i] = at + (dst.receive(size, cpu_s, at) - at)

    for i, (gap, s, d, size, src_cpu_s, dst_cpu_s, on_arrival) \
            in enumerate(script):
        now += gap
        land(now)
        src, dst = nodes[s], nodes[d]
        src.sent += size
        arrival = src.wire("egress", size, src.cpu(src_cpu_s, now)
                           if src_cpu_s else now) + hop(s, d, size)
        if on_arrival or crosses(s, d):
            heappush(landings,
                     (now + (arrival - now), i, dst, size, dst_cpu_s))
        else:
            done[i] = now + (dst.receive(size, dst_cpu_s, arrival) - now)
    land(inf)
    return done


def drive(cluster, script):
    """Send ``script`` on ``cluster``; returns each leg's event and the
    instant its subscriber ran."""
    env = cluster.env
    events, done = [], {}

    def sender():
        for i, (gap, s, d, size, src_cpu_s, dst_cpu_s, on_arrival) \
                in enumerate(script):
            if gap:
                yield env.timeout(gap)
            events.append(cluster.leg(
                cluster.node(s), cluster.node(d), size, src_cpu_s,
                dst_cpu_s, on_arrival,
                callback=lambda _leg, i=i: done.__setitem__(i, env.now)))

    env.process(sender())
    env.run()
    return events, done


def check_totals(cluster, nodes, script):
    assert cluster.network.messages == len(script)
    for node, ref in zip(cluster.nodes, nodes):
        assert node.nic.bytes_sent == ref.sent
        assert node.nic.bytes_received == ref.received
        assert node.nic.busy_s == ref.busy_s
        assert node.cpu_time == ref.cpu_time
    assert sum(n.nic.bytes_sent for n in cluster.nodes) \
        == sum(n.nic.bytes_received for n in cluster.nodes) \
        == sum(leg[3] for leg in script)


@given(script=LEGS, seed=st.integers(0, 2**16), slow=st.integers(0, N_NODES - 1))
@settings(max_examples=200, deadline=None)
def test_rack_legs_match_the_five_stage_definition(script, seed, slow):
    cluster = Cluster(Environment(), ClusterSpec(n_nodes=N_NODES, node=NODE),
                      RngRegistry(seed))
    cluster.node(slow).nic.slowdown = 2.5
    draw = RngRegistry(seed).stream("network").random

    def hop(_src, _dst, _size):
        return NET.base_latency_s * (NET.latency_floor
                                     - log(1.0 - draw()) * NET.latency_tail)

    nodes = [_RefNode(2.5 if i == slow else 1.0) for i in range(N_NODES)]
    expected = reference(script, nodes, hop, lambda s, d: False)
    events, done = drive(cluster, script)
    assert done == expected
    for leg, event in zip(script, events):
        # A leg booked on arrival is a plain event behind two timeouts.
        assert type(event) is (Event if leg[6] else Timeout)
    check_totals(cluster, nodes, script)


@given(script=LEGS, seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_geo_legs_defer_exactly_the_cross_datacenter_ones(script, seed):
    # One server and one client in each datacenter: nodes 0 and 2 in
    # eu-west, 1 and 3 in us-west, each the default NodeSpec.
    geo = GeoConfig(datacenters=(("eu-west", 1), ("us-west", 1)),
                    replication_per_dc=())
    cluster = GeoCluster(Environment(), geo, RngRegistry(seed))
    assert len(cluster.nodes) == N_NODES
    wan_s = DEFAULT_REGION_RTTS[frozenset({"eu-west", "us-west"})]
    datacenter = cluster.node_datacenter
    rng = RngRegistry(seed).stream("geo.network")

    def crosses(s, d):
        return datacenter[s] != datacenter[d]

    def hop(s, d, size):
        factor = 0.7 + rng.expovariate(1.0 / 0.6)
        if crosses(s, d):
            return wan_s * factor + size / WAN_BANDWIDTH_BPS
        return LOCAL_LATENCY_S * factor + 0.0

    nodes = [_RefNode(1.0, cluster.spec.node.cores) for _ in range(N_NODES)]
    expected = reference(script, nodes, hop, crosses)
    events, done = drive(cluster, script)
    assert done == expected
    for leg, event in zip(script, events):
        deferred = leg[6] or crosses(leg[1], leg[2])
        assert type(event) is (Event if deferred else Timeout)
    check_totals(cluster, nodes, script)


# -- the CPU stages, against Node.reserve_cpu ------------------------------

#: Per node, what each core is already booked until, relative to the
#: first leg's send: idle, just busy, or busy well past the traffic.
BACKLOG = st.lists(st.lists(st.sampled_from([0.0, 1e-5, 4e-4, 0.05]),
                            min_size=NODE.cores, max_size=NODE.cores),
                   min_size=N_NODES, max_size=N_NODES)


def _booked(backlog, seed, through_reserve_cpu):
    """A rack whose cores start with ``backlog``; with
    ``through_reserve_cpu`` every node carries an always-on power
    manager, which sends ``leg`` through ``Node.reserve_cpu`` and changes
    no instant (it wakes nothing)."""
    cluster = Cluster(Environment(), ClusterSpec(n_nodes=N_NODES, node=NODE),
                      RngRegistry(seed))
    for node, cores in zip(cluster.nodes, backlog):
        node._core_free = sorted(cores)
        if through_reserve_cpu:
            node.power = PowerManager(PowerSpec(), mode="always_on")
    return cluster


@given(script=LEGS, backlog=BACKLOG, seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_cpu_stages_book_as_reserve_cpu_does(script, backlog, seed):
    inline = _booked(backlog, seed, through_reserve_cpu=False)
    called = _booked(backlog, seed, through_reserve_cpu=True)
    _, done = drive(inline, script)
    _, expected = drive(called, script)
    assert done == expected
    for node, twin in zip(inline.nodes, called.nodes):
        assert node.cpu_time == twin.cpu_time
        assert sorted(node._core_free) == sorted(twin._core_free)


def test_a_power_managed_node_pays_its_wake_through_reserve_cpu(monkeypatch):
    """A parked receiver wakes before its core runs: ``leg`` hands its
    CPU stage to ``Node.reserve_cpu``, which charges the wake latency,
    while the sender (no power manager) is booked inline."""
    booked = []
    reserve_cpu = Node.reserve_cpu

    def spy(node, seconds, at=0.0):
        booked.append((node.node_id, seconds, at))
        return reserve_cpu(node, seconds, at)

    monkeypatch.setattr(Node, "reserve_cpu", spy)
    cluster = Cluster(Environment(), ClusterSpec(n_nodes=2, node=NODE),
                      RngRegistry(3))
    env, a, b = cluster.env, cluster.node(0), cluster.node(1)
    spec = PowerSpec()
    b.power = PowerManager(spec, mode="race_to_sleep")
    env.run(until=spec.sleep_after_s + 1.0)
    leg = cluster.leg(a, b, 1_000, 2.5e-5, 3e-5)
    start = env.now
    env.run(until=leg)
    (node_id, seconds, arrival), = booked
    assert (node_id, seconds) == (1, 3e-5)
    assert env.now == start + ((arrival + spec.sleep_wake_s + 3e-5) - start)
    assert b.power.wakes == 1 and a.cpu_time == 2.5e-5
