"""Network model: per-node NICs joined by one rack switch.

A message from node A to node B costs:

- serialization on A's egress NIC (size / bandwidth, queued if busy),
- a fixed propagation + switch + kernel-stack latency,
- serialization on B's ingress NIC.

Holding the NIC resource for the serialization time makes bandwidth a real
shared bottleneck: a node fanning a mutation out to five replicas pays for
five back-to-back serializations, which is exactly the effect the paper's
replication-factor sweeps exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Network", "NetworkSpec", "Nic"]


@dataclass(frozen=True)
class NetworkSpec:
    """Gigabit-ethernet, single-rack parameters."""

    #: Usable NIC bandwidth (bytes/second).  GigE minus framing overhead.
    bandwidth_bps: float = 117e6
    #: One-way latency: NIC + switch + kernel stack, in-rack.
    base_latency_s: float = 0.00003
    #: Fixed per-message size overhead (headers), bytes.
    header_bytes: int = 60
    #: Per-message latency variability: the delay is
    #: ``base * (floor + Exp(tail))`` — kernel scheduling and interrupt
    #: coalescing give in-rack RTTs an exponential tail, which is what
    #: makes wait-for-the-slowest-replica operations (write ALL, quorum
    #: digests) systematically slower than wait-for-the-fastest.
    latency_floor: float = 0.7
    latency_tail: float = 0.6


class Nic:
    """A full-duplex NIC: independent egress and ingress channels.

    Each channel is a *busy-until accumulator*: serializations are FIFO,
    capacity one, and never cancelled, so ``start = max(now, busy_until)``
    reproduces a wait queue exactly while costing a single timeout event
    instead of a resource round-trip — the NIC is on the path of every
    RPC byte, which made the old ``Resource`` machinery the single
    biggest event source in stress-cell profiles.  This is the record
    only: the booking is written out in
    :meth:`repro.cluster.topology.Cluster.leg` (both channels) and in
    ``Cluster._land`` (ingress, on arrival), and nowhere else.
    """

    def __init__(self, spec: NetworkSpec) -> None:
        self.spec = spec
        #: Absolute instants until which each channel is booked.
        self.egress_busy = 0.0
        self.ingress_busy = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Cumulative channel-busy seconds (egress + ingress), the NIC
        #: term of the energy meter's power integral.
        self.busy_s = 0.0
        #: Fault-injection hook: serialization-time multiplier (>= 1).
        #: Packet loss and added latency both surface to flows as a lower
        #: effective bandwidth, so a degraded NIC is modelled as a slower
        #: one (the ``slow_nic`` / ``dc_slow_nic`` kinds of
        #: :class:`repro.cluster.config.FaultSpec`).
        #: Read at booking time: messages already queued keep the rate
        #: they were booked under.
        self.slowdown = 1.0


class Network:
    """The rack fabric: every hop crosses the same switch, so it is the
    spec, the ``network`` stream's uniform draw and the message counter;
    :meth:`repro.cluster.topology.Cluster.leg` draws the hop's delay,
    ``base * (floor + Exp(tail))`` (the exponential as one uniform draw).
    The geo fabric prices a hop by endpoints in its ``sample_latency``.
    """

    def __init__(self, spec: NetworkSpec, rng) -> None:
        self.spec = spec
        self.random = rng.random
        self.messages = 0
