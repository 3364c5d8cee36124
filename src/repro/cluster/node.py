"""A cluster node: cores + RAM + one disk + one NIC.

Matches one machine of the paper's testbed: two Xeon L5640 processors
(2 × 6 cores × 2 hyper-threads = 24 logical cores), 32 GB of RAM, one hard
drive, gigabit ethernet.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from typing import Callable, Generator, Union

from repro.cluster.disk import Disk, DiskSpec
from repro.cluster.nic import NetworkSpec, Nic
from repro.sim.kernel import Environment, Event, Timeout

__all__ = ["Node", "NodeSpec"]


@dataclass(frozen=True)
class NodeSpec:
    """Per-machine hardware parameters."""

    #: Logical cores (hyper-threads) usable by request handlers.
    cores: int = 24
    disk: DiskSpec = DiskSpec()
    network: NetworkSpec = NetworkSpec()


class Node:
    """One simulated machine, addressable by ``node_id``."""

    def __init__(self, env: Environment, node_id: int, spec: NodeSpec,
                 rng) -> None:
        self.env = env
        self.node_id = node_id
        self.spec = spec
        #: Per-core free-at times (a heap).  CPU claims are FIFO and
        #: never cancelled, so reserving ``start = max(now, earliest
        #: free core)`` is exactly a ``Resource(capacity=cores)`` wait
        #: queue at a fraction of the event cost — ``cpu_work`` runs
        #: several times per RPC.
        self._core_free = [0.0] * spec.cores
        self.disk = Disk(env, spec.disk, rng)
        self.nic = Nic(spec.network)
        #: RPC verb -> handler.  A handler is a callable ``handler(payload)``
        #: returning the :class:`~repro.sim.kernel.Event` that completes
        #: with the RPC response payload, or a generator returning it —
        #: only a generator costs the request a process.  A verb that a
        #: coordinator also calls on its own node (through
        #: :meth:`~repro.cluster.topology.Cluster.call_local`: Cassandra's
        #: ``c.mutate``, ``c.read_data``, ``c.read_digest``, ``c.scan``)
        #: must return an event, on that path and in any wrapper that
        #: replaces it here; only a remote caller can take a generator.
        self.handlers: dict[str, Callable[[object], Union[Event,
                                                          Generator]]] = {}
        #: RPC verb -> fixed handler CPU seconds that ride the request
        #: leg's callee reservation (only verbs that declared some).
        self.verb_cpu: dict[str, float] = {}
        self.alive = True
        self.cpu_time = 0.0
        #: When this machine was provisioned (energy meters bill nodes
        #: that join a running cluster from here, not window start).
        self.created_at = env.now
        #: Power-state machine (:class:`repro.energy.power.PowerManager`)
        #: when power management is enabled; ``None`` keeps the hot path
        #: free for always-on clusters.
        self.power = None

    def register(self, verb: str,
                 handler: Callable[[object], Union[Event, Generator]],
                 cpu_s: float = 0.0) -> None:
        """Install the handler for RPC ``verb`` on this node.

        ``cpu_s`` is CPU the verb costs on every request before the
        handler can look at it.  The transport books it in the same core
        reservation as the request's deserialization, so it costs no
        kernel event of its own — and is charged even when the handler
        then refuses the request.  ``handler`` returns an event or a
        generator; a verb also called locally returns an event (see
        ``handlers``).
        """
        if verb in self.handlers:
            raise ValueError(f"verb {verb!r} already registered on node {self.node_id}")
        self.handlers[verb] = handler
        if cpu_s:
            self.verb_cpu[verb] = cpu_s

    def cpu_work(self, seconds: float) -> Generator:
        """Hold one core for ``seconds`` of computation (a process)."""
        if seconds <= 0:
            return
        end = self.reserve_cpu(seconds)
        now = self.env._now
        if end > now:
            yield Timeout(self.env, end - now)

    def reserve_cpu(self, seconds: float, at: float = 0.0) -> float:
        """Book a core for ``seconds`` starting no earlier than ``at``
        (and no earlier than now); returns the absolute completion time.

        CPU claims are FIFO and never cancelled, so ``start = max(at,
        now, earliest free core)`` reproduces a
        ``Resource(capacity=cores)`` wait queue exactly, at a single
        timeout event instead of a request round-trip.
        :meth:`Cluster.leg <repro.cluster.topology.Cluster.leg>` writes
        these steps out for a node with no power manager: a change here
        is a change there.
        """
        start = self.env._now
        if at > start:
            start = at
        earliest = self._core_free[0]
        if earliest > start:
            start = earliest
        if self.power is not None:
            # A parked machine pays its deterministic wake latency
            # before the core can run — power management costs tail.
            start = self.power.wake_for_work(start)
        end = start + seconds
        heapreplace(self._core_free, end)
        self.cpu_time += seconds
        if self.power is not None:
            self.power.note_busy(end)
        return end

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Node {self.node_id} {state}>"
