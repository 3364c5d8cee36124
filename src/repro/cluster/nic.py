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
from math import log
from typing import Optional

from repro.sim.kernel import Environment

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

    Each channel is a *busy-until reservation*: serializations are FIFO,
    capacity one, and never cancelled, so ``start = max(now, busy_until)``
    reproduces a wait queue exactly while costing a single timeout event
    instead of a resource round-trip — the NIC is on the path of every
    RPC byte, which made the old ``Resource`` machinery the single
    biggest event source in stress-cell profiles.  Both channels are
    booked by :meth:`repro.cluster.topology.Cluster.leg` and nowhere
    else.
    """

    def __init__(self, env: Environment, spec: NetworkSpec) -> None:
        self.env = env
        self.spec = spec
        self._egress_busy = 0.0
        self._ingress_busy = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Cumulative channel-busy seconds (egress + ingress), the NIC
        #: term of the energy meter's power integral.
        self.busy_s = 0.0
        #: Fault-injection hook: serialization-time multiplier (>= 1).
        #: Packet loss and added latency both surface to flows as a lower
        #: effective bandwidth, so a degraded NIC is modelled as a slower
        #: one (see :class:`repro.cluster.failure.NicDegradeFault`).
        #: Read at reservation time: messages already queued keep the
        #: rate they reserved under.
        self.slowdown = 1.0

    def reserve_egress(self, size: int, at: float = 0.0) -> float:
        """Book the egress channel for ``size`` bytes starting no earlier
        than ``at``; returns the completion time (absolute)."""
        self.bytes_sent += size
        spec = self.spec
        start = self.env._now
        if at > start:
            start = at
        if self._egress_busy > start:
            start = self._egress_busy
        done = start + (self.slowdown * (size + spec.header_bytes)
                        / spec.bandwidth_bps)
        self.busy_s += done - start
        self._egress_busy = done
        return done

    def reserve_ingress(self, size: int, at: float = 0.0) -> float:
        """Book the ingress channel for ``size`` bytes starting no earlier
        than ``at``; returns the completion time (absolute)."""
        self.bytes_received += size
        spec = self.spec
        start = self.env._now
        if at > start:
            start = at
        if self._ingress_busy > start:
            start = self._ingress_busy
        done = start + (self.slowdown * (size + spec.header_bytes)
                        / spec.bandwidth_bps)
        self.busy_s += done - start
        self._ingress_busy = done
        return done


class Network:
    """The rack fabric: computes transit delay between two NICs."""

    def __init__(self, env: Environment, spec: NetworkSpec, rng) -> None:
        self.env = env
        self.spec = spec
        self._rng = rng
        self._random = rng.random
        self.messages = 0

    def sample_latency(self, src: Optional[Nic] = None,
                       dst: Optional[Nic] = None, size: int = 0) -> float:
        """One switch-hop delay draw (floor plus exponential tail).

        ``src``/``dst``/``size`` are ignored on the single-rack fabric —
        every hop crosses the same switch — but belong to the signature
        so topology-aware fabrics (the geo cluster) can price the hop by
        endpoint pair and message size.  The exponential draw is inlined
        (one uniform draw, same distribution as ``expovariate``): this
        runs once per message leg.
        """
        spec = self.spec
        factor = spec.latency_floor
        tail = spec.latency_tail
        if tail:
            factor -= log(1.0 - self._random()) * tail
        return spec.base_latency_s * factor
