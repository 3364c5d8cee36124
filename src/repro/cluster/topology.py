"""Cluster wiring and the RPC transport.

The paper's testbed is 16 machines in one rack; the cluster builds the
nodes, the shared rack fabric, and an RPC layer — one callback chain
per round trip (:class:`AsyncCall`), no process of its own — with the
semantics the database models need:

- request and response each pay NIC serialization + switch latency,
- both sides pay a small fixed CPU cost (kernel + (de)serialization),
- calls to a dead node never produce a response — the caller either
  times out (:class:`RpcTimeout`) or, with no timeout configured, fails
  fast with :class:`DeadNodeError` to avoid deadlocking the simulation,
- an optional **deadline** (absolute simulation time) rides the request
  envelope: a request that *arrives* after its deadline is abandoned
  before the handler runs (the callee computes nothing a caller will
  never read), and the caller observes :class:`DeadlineExceeded` the
  moment the budget runs out,
- every failure is the call's *value*, never a raise: a caller raises
  it itself (:meth:`Cluster.call` does just that).  Handlers that queue behind bounded
  resources receive the deadline too (see the database models) and
  withdraw their queue slot when it expires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import ceil, log
from typing import Any, Callable, Generator, Optional

from repro.cluster.nic import Network, NetworkSpec
from repro.cluster.node import Node, NodeSpec
from repro.sim.kernel import (URGENT, Environment, Event, Interrupt,
                              ModelledFailure, Process, Timeout, _PENDING,
                              _finish, _settled)
from repro.sim.resources import Overloaded, Served
from repro.sim.rng import RngRegistry

__all__ = ["AsyncCall", "Cluster", "ClusterSpec", "DeadNodeError",
           "DeadlineExceeded", "DEFAULT_CLIENT_OVERHEAD_S", "ENVELOPE_BYTES",
           "RPC_CPU_S", "RpcTimeout", "TimerWheel"]

#: Client-side CPU per operation (driver serialization, thread wake-up).
#: The paper's methodology section is explicit that client-side latency
#: exists and must be controlled by thread-count choice; charging it on
#: the client node makes the single client machine a realistic, shared
#: resource (the paper dedicates one of the 16 machines to YCSB).  The
#: database clients fold it into the request leg's core reservation via
#: ``call_async(..., src_cpu_s=...)`` so it costs no extra kernel event.
#: Defined here (not in ``repro.ycsb.client``) because both database
#: driver packages need it and importing from ycsb would be circular.
DEFAULT_CLIENT_OVERHEAD_S = 2e-4

#: Fixed CPU time charged per RPC message on each side (request
#: handling, serialization, kernel crossings).
RPC_CPU_S = 0.000025
#: RPC sizes are payload + this request/response envelope.
ENVELOPE_BYTES = 120

#: Sentinel outcome meaning "no response will come": the callee is dead,
#: or it abandoned a request that arrived after its deadline.
_NO_RESPONSE = object()


class RpcTimeout(ModelledFailure):
    """An RPC did not complete within its deadline."""


class DeadlineExceeded(RpcTimeout):
    """The operation's propagated deadline expired before it completed.

    Subclasses :class:`RpcTimeout` so every existing timeout-handling
    path (driver retries, fan-out helpers, error accounting) treats it
    as a timeout — but the distinct type shows up in
    ``errors_by_type`` breakdowns.
    """


class DeadNodeError(ModelledFailure):
    """An RPC without a deadline targeted a dead node."""


class AsyncCall(Event):
    """One RPC in flight (:meth:`Cluster.call_async`): the transport, as
    a chain of callbacks, and the caller's wait for its outcome.

    Request :meth:`Cluster.leg` fires → liveness and deadline check →
    handler → response leg fires → the call completes, inline, with the
    handler's result.  No process: each step is a callback on the event
    the step before produced, and this object is the state they share.
    A handler returns its completion :class:`Event`, or a generator —
    only that is wrapped in a :class:`Process`.

    Always *succeeds*; failures arrive as exception **values** — so a
    condition over many replicas never crashes on one slow callee:
    :class:`RpcTimeout`/:class:`DeadlineExceeded` when the timer wins,
    :class:`DeadNodeError` when a dead callee has no timer to wait out,
    :class:`~repro.sim.resources.Overloaded` when the callee shed the
    request, :class:`~repro.sim.kernel.Interrupt` when the caller
    cancelled (hedge loser).  The round trip goes on server-side in
    every case — cancellation does not reach over the wire — which is
    what lets late replica writes land and keep the staleness/hinted-
    handoff semantics honest.

    Completion is settled *inline* from the transport's (or the shared
    timer's) dispatch, so the result itself never costs a queue event;
    a caller whose RPC times out resumes inside the timer's dispatch, in
    the order the calls were registered on it.
    """

    #: ``_watchers``: the :class:`TimerWheel` table this call's expiry
    #: watch sits in while the call is pending (``None``: no timer).
    __slots__ = ("cluster", "src", "dst", "verb", "payload",
                 "response_bytes", "deadline", "_watchers", "_timeout",
                 "_deadline_first")

    def __init__(self, cluster: "Cluster", src: Node, dst: Node, verb: str,
                 payload: Any, request_bytes: int, response_bytes: int,
                 deadline: Optional[float], src_cpu_s: float) -> None:
        """Put the request on the wire.

        Both sides pay :data:`RPC_CPU_S` per message.  ``src_cpu_s`` (the
        caller's own pre-request CPU, e.g. driver bookkeeping) and the
        verb's registered ``cpu_s`` ride the request leg's two core
        reservations, so neither costs a kernel event.
        """
        self.env = cluster.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._watchers = None
        self.cluster = cluster
        self.src = src
        self.dst = dst
        self.verb = verb
        self.payload = payload
        self.response_bytes = response_bytes
        self.deadline = deadline
        verb_cpu = dst.verb_cpu
        cluster.leg(
            src, dst, request_bytes + ENVELOPE_BYTES,
            src_cpu_s + RPC_CPU_S,
            RPC_CPU_S + verb_cpu[verb] if verb in verb_cpu else RPC_CPU_S,
            callback=self._arrived)

    @classmethod
    def _unsent(cls, env: Environment, failure: Exception) -> "AsyncCall":
        """A call that never left the caller: settled, ``failure`` its
        value."""
        self = cls.__new__(cls)
        self.env = env
        self.callbacks = None
        self._value = failure
        self._ok = True
        self._defused = False
        self._watchers = None
        return self

    @property
    def is_alive(self) -> bool:
        """True while the caller-side wait is still undecided."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Cancel the caller-side wait; the RPC drains server-side.

        Mirrors :meth:`~repro.sim.kernel.Process.interrupt` delivery:
        the result triggers through the queue (urgently), never inline —
        the interrupter is mid-execution and its waiters must not run
        inside its frame.
        """
        if self._value is not _PENDING:
            return
        if self._watchers is not None:
            del self._watchers[self]
        self._value = Interrupt(cause)
        self.env._schedule(self, URGENT, 0.0)

    def _arrived(self, _leg: Event) -> None:
        """The request reached the callee: check, then hand it over."""
        dst = self.dst
        if not dst.alive:
            self._outcome(True, _NO_RESPONSE)
            return
        deadline = self.deadline
        if deadline is not None and self.env._now >= deadline:
            # Deadline propagation: the budget is already spent when the
            # request arrives, so the callee drops it without computing a
            # result nobody will read (the caller's own timer fires).
            self.cluster.abandoned_rpcs += 1
            self._outcome(True, _NO_RESPONSE)
            return
        verb = self.verb
        handlers = dst.handlers
        try:
            if verb not in handlers:
                raise LookupError(
                    f"node {dst.node_id} has no handler for {verb!r}")
            work = handlers[verb](self.payload)
        except Exception as exc:
            # A handler that refuses before it has anything to wait for
            # (a stale region map) failed like one that refuses later.
            if not self._outcome(False, exc):
                raise
            if ModelledFailure in exc.__class__.__mro__:
                exc.__traceback__ = None  # as Process._finalize does
            return
        # An event is waited for as it is; anything else is the body of
        # a process (which refuses non-generators).  The process runs its
        # first segment right here and may fail in it — a full bounded
        # queue — so :meth:`_handled` subscribes before it starts.
        if Event not in work.__class__.__mro__:
            Process(self.env, work, verb, True, self._handled)
        elif work.callbacks is None:
            self._handled(work)
        else:
            work.callbacks.append(self._handled)

    def _handled(self, work: Event) -> None:
        """The handler finished: send the response, or report why not."""
        if not work._ok:
            # No response leg for a failure: the caller learns of a shed
            # or a refusal the instant it happens.
            if self._outcome(False, work._value):
                work._defused = True
            return
        if not self.dst.alive:
            self._outcome(True, _NO_RESPONSE)
            return
        self.payload = work._value  # the request is spent; keep the reply
        self.cluster.leg(self.dst, self.src,
                         self.response_bytes + ENVELOPE_BYTES, 0.0,
                         RPC_CPU_S, callback=self._responded)

    def _responded(self, _leg: Event) -> None:
        if self._value is _PENDING:  # else timed out or cancelled
            self._settle(self.payload)

    def _outcome(self, ok: bool, value: Any) -> bool:
        """The callee is done with the request, one way or another.
        Returns whether a failure was taken off the handler's hands."""
        if self._value is not _PENDING:
            return True  # timed out or cancelled; the late outcome is noise
        if ok:
            if value is not _NO_RESPONSE:
                self._settle(value)
            elif self._watchers is None:
                self._settle(DeadNodeError(
                    f"rpc {self.verb!r} to dead node {self.dst.node_id} "
                    f"(no timeout set)"))
            # else: dead callee or server-side abandonment — the caller
            # still waits out its own timer, so the watch stays.
        elif isinstance(value, (RpcTimeout, DeadNodeError, Overloaded,
                                Interrupt)):
            self._settle(value)
        elif self.callbacks:
            # Unexpected failure (e.g. a replica process crashing
            # mid-request): propagate as a *failure* of the result, so
            # waiters re-raise it and fan-out conditions defuse it.
            self._ok = False
            self._settle(value)
        else:
            # No waiters: stay armed so the kernel's unhandled-failure
            # check crashes loudly on genuine bugs.
            return False
        return True

    def _settle(self, value: Any) -> None:
        """Complete inline with ``value`` (called from kernel dispatch)."""
        if self._watchers is not None:
            del self._watchers[self]
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def _expire(self) -> None:
        """This call's watcher on the shared timer."""
        if self._value is not _PENDING:
            return  # settled earlier in this very timer walk
        if self._deadline_first:
            self._settle(DeadlineExceeded(
                f"rpc {self.verb!r} to node {self.dst.node_id} exceeded "
                f"its deadline"))
        else:
            self._settle(RpcTimeout(
                f"rpc {self.verb!r} to node {self.dst.node_id} timed out "
                f"after {self._timeout}s"))


class _LocalCall(AsyncCall):
    """:meth:`Cluster.call_local`'s result for a generator handler: the
    failure-as-value contract of an :class:`AsyncCall` with no wire
    under it — the handler's process is all there is, so its outcome is
    this call's, and a cancellation does reach it."""

    __slots__ = ("_work",)

    def __init__(self, env: Environment, work: Generator) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._watchers = None
        self._work = Process(env, work, None, True, self._handled)

    def _handled(self, work: Event) -> None:
        if work._ok:
            self._outcome(True, work._value)
        elif self._outcome(False, work._value):
            work._defused = True

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the handler's process — slot queue, disk queue and
        all; its :class:`Interrupt` comes back as this call's value."""
        if self._value is _PENDING:
            self._work.interrupt(cause)


class TimerWheel:
    """Shared RPC timeouts: one kernel event per distinct expiry instant.

    A replication fan-out issues R RPCs at the same instant with the
    same timeout; batching them onto one timer event cuts R-1 timer
    allocations *and* R-1 queue entries per fan-out.  An RPC racing an
    expiry registers a zero-argument *watcher* in that timer's table
    (:meth:`timer`; keyed by whatever the RPC settles through) and
    deletes it the moment it settles, so a pending timer references
    in-flight RPCs only — a finished RPC's state dies by reference
    count, not when its timeout would have fired.  The timer itself
    still fires, as an empty event, when every watcher has left.

    Non-``exact`` expiries are rounded *up* onto a wheel whose tick is
    1/32 of the requested wait — the hashed-timer-wheel scheme
    production RPC stacks use (Netty/Cassandra tick every ~100 ms),
    where a timeout is a failure detector, never a precision clock.
    Rounding up means a timer is never early, at most ~3% late; in
    exchange every RPC issued within the same tick shares one queue
    entry instead of allocating its own never-to-fire timeout.
    ``exact`` is for deadline-driven waits, where the remaining budget
    must not be silently extended.
    """

    __slots__ = ("env", "_pending")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: Absolute fire time -> (pending timeout, its watcher table);
        #: dropped as the timeout fires.
        self._pending: dict[float, tuple[Timeout, dict]] = {}

    def timer(self, wait_s: float, exact: bool = False) -> tuple[Timeout, dict]:
        """The timeout firing ``wait_s`` (or a hair later) from now and
        its watcher table; insertion order is firing order."""
        env = self.env
        pending = self._pending
        fire_at = env._now + wait_s
        if not exact:
            tick = wait_s * 0.03125
            fire_at = ceil(fire_at / tick) * tick
        entry = pending.get(fire_at)
        if entry is None:
            watchers: dict = {}

            def _fire(_timer: Any) -> None:
                del pending[fire_at]
                # Walk a snapshot: an expiry can resume a process inline
                # that settles or cancels other watched RPCs mid-walk
                # (their watchers then find nothing left to do).
                for expire in tuple(watchers.values()):
                    expire()

            entry = pending[fire_at] = (
                Timeout(env, fire_at - env._now, None, _fire), watchers)
        return entry


@dataclass(frozen=True)
class ClusterSpec:
    """Whole-testbed parameters (defaults follow the paper's rack)."""

    #: Total machines, including the one reserved for the YCSB client.
    n_nodes: int = 16
    node: NodeSpec = field(default_factory=NodeSpec)


class Cluster:
    """Builds nodes and provides the RPC transport between them."""

    #: node_id -> datacenter name on a multi-datacenter cluster; ``None``
    #: on a single rack.  :meth:`leg` reads it to tell a WAN leg.
    node_datacenter: Optional[dict] = None

    def __init__(self, env: Environment, spec: ClusterSpec,
                 rngs: RngRegistry) -> None:
        self.env = env
        self.spec = spec
        self.rngs = rngs
        self.network = Network(spec.node.network, rngs.stream("network"))
        self.nodes: list[Node] = [
            Node(env, i, spec.node, rngs.stream(f"disk.{i}"))
            for i in range(spec.n_nodes)
        ]
        self.rpc_count = 0
        #: Requests that arrived at the callee after their deadline and
        #: were abandoned before the handler ran.
        self.abandoned_rpcs = 0
        self._wheel = TimerWheel(env)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def kill(self, node_id: int) -> None:
        """Crash a node: it stops answering RPCs until restarted."""
        self.nodes[node_id].alive = False

    def restart(self, node_id: int) -> None:
        """Bring a crashed node back (state is whatever the DB model kept)."""
        self.nodes[node_id].alive = True

    # -- RPC -----------------------------------------------------------

    def leg(self, src: Node, dst: Node, size: int, src_cpu_s: float = 0.0,
            dst_cpu_s: float = 0.0, on_arrival: bool = False,
            callback: Optional[Callable[[Event], None]] = None) -> Event:
        """Send one ``size``-byte message from ``src`` to ``dst``; returns
        the event that fires when ``dst`` has it (``yield`` it; or pass
        the next stage as ``callback``, its first subscriber).  This is
        the only way bytes cross the network, and the only place a
        channel is booked.

        Five stages: ``src_cpu_s`` on a sender core, egress
        serialization, the switch hop, ingress serialization,
        ``dst_cpu_s`` on a receiver core.  All five are booked up front
        against the busy-until accumulators, each starting where the one
        before it ends, and waited out as ONE timeout: nothing can
        observe the instants in between, so a chain of deterministic
        stages is one delay.  Booking a downstream stage at the upstream
        stage's completion time is *optimistic reservation*: a message
        starting later but reaching a shared stage earlier keeps FIFO
        order by reservation, not by arrival — exact whenever the stages
        are uncontended and microseconds off otherwise.

        **The look-ahead rule.**  A busy-until accumulator cannot
        backfill: booking a stage at a future instant parks it for every
        message that turns up in the gap.  So a reservation is made
        ahead of "now" only (a) across the stages of *one* in-rack leg
        of a message that fits one packet, where the gap is tens of
        microseconds, and (b) on the multi-server CPU, where parking one
        of 24 cores delays nobody.  Never across a second hop, and never
        across anything that can refuse, reorder or time out a waiter
        (bounded handler pools, the disk, a synchronous log append).
        Where the gap is long, the receiving half is booked when the
        message *arrives* instead (:meth:`_land`), at the cost of a
        second timeout — never of a process: always on a
        cross-datacenter leg (``node_datacenter``: a WAN mutation booked
        90 ms ahead would queue every rack-local message behind a link
        that is idle), and when the caller says ``on_arrival`` — the
        chunks of a multi-chunk bulk transfer, each of which holds the
        wire for half a millisecond.
        """
        env = self.env
        now = env._now
        network = self.network
        network.messages += 1
        # Written out, once per message: these float operations, in this
        # order, are the contract every replay digest hangs on.  Egress
        # starts at the later of now, the sender's CPU and the channel.
        start = src.reserve_cpu(src_cpu_s) if src_cpu_s else now
        nic = src.nic
        nic.bytes_sent += size
        if nic.egress_busy > start:
            start = nic.egress_busy
        wire = nic.spec
        sent = start + (nic.slowdown * (size + wire.header_bytes)
                        / wire.bandwidth_bps)
        nic.busy_s += sent - start
        nic.egress_busy = sent
        # The switch hop: floor plus an exponential tail, one draw.
        datacenter = self.node_datacenter
        if datacenter is None:
            fabric = network.spec
            factor = fabric.latency_floor
            if fabric.latency_tail:
                factor -= log(1.0 - network.random()) * fabric.latency_tail
            start = sent + fabric.base_latency_s * factor
        else:
            start = sent + network.sample_latency(nic, dst.nic, size)
            if datacenter[src.node_id] != datacenter[dst.node_id]:
                on_arrival = True
        if on_arrival:
            landed = Event(env)
            if callback is not None:
                landed.callbacks.append(callback)
            Timeout(env, start - now, None,
                    partial(self._land, dst, size, dst_cpu_s, landed))
            return landed
        # Ingress, then the receiver's CPU.
        nic = dst.nic
        nic.bytes_received += size
        if nic.ingress_busy > start:
            start = nic.ingress_busy
        wire = nic.spec
        done = start + (nic.slowdown * (size + wire.header_bytes)
                        / wire.bandwidth_bps)
        nic.busy_s += done - start
        nic.ingress_busy = done
        if dst_cpu_s:
            done = dst.reserve_cpu(dst_cpu_s, at=done)
        return Timeout(env, done - now, None, callback)

    def _land(self, dst: Node, size: int, cpu_s: float, landed: Event,
              _arrival: Event) -> None:
        """A deferred :meth:`leg` arrived: book its receiving half (the
        one booking outside ``leg``), then complete ``landed`` inline."""
        env = self.env
        start = env._now
        nic = dst.nic
        nic.bytes_received += size
        if nic.ingress_busy > start:
            start = nic.ingress_busy
        wire = nic.spec
        done = start + (nic.slowdown * (size + wire.header_bytes)
                        / wire.bandwidth_bps)
        nic.busy_s += done - start
        nic.ingress_busy = done
        if cpu_s:
            done = dst.reserve_cpu(cpu_s, at=done)
        Timeout(env, done - env._now, None,
                lambda _timer: _finish(landed, True, None))

    def call(self, *args: Any, **kwargs: Any) -> Generator:
        """:meth:`call_async`, raising its failure value (``yield from``
        this): returns the handler's result, or raises the
        :class:`RpcTimeout` / :class:`DeadlineExceeded` /
        :class:`DeadNodeError` / shed the call settled with."""
        result = yield self.call_async(*args, **kwargs)
        if isinstance(result, Exception):
            try:
                raise result
            finally:
                del result  # no cycle through this frame's traceback
        return result

    def call_async(self, src: Node, dst: Node, verb: str, payload: Any = None,
                   request_bytes: int = 0, response_bytes: int = 0,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None,
                   src_cpu_s: float = 0.0) -> AsyncCall:
        """Send an RPC; returns the :class:`AsyncCall` to wait on.

        Its value is the handler's result or, when ``timeout`` elapses
        first, the absolute ``deadline`` passes first or the callee is
        dead and neither bound was given, an :class:`RpcTimeout`,
        :class:`DeadlineExceeded` or :class:`DeadNodeError` *value* — a
        modelled failure never raises (a bug in the handler still fails
        the call), so one dead or shedding callee cannot crash a fan-out
        condition (``yield AllOf(...)`` / ``AnyOf(...)`` over several
        calls), and a single caller raises it itself.
        ``src_cpu_s`` is extra caller-side CPU charged ahead of the
        request serialization.  Costs no process of its own — the round
        trip, the timeout race and the failure-to-value conversion are
        callbacks on one object — unless the handler is a generator.
        """
        self.rpc_count += 1
        wait_s = timeout
        deadline_first = False
        if deadline is not None:
            remaining = deadline - self.env._now
            if remaining <= 0:
                return AsyncCall._unsent(self.env, DeadlineExceeded(
                    f"rpc {verb!r} to node {dst.node_id}: deadline already "
                    f"passed before send"))
            if wait_s is None or remaining < wait_s:
                wait_s = remaining
                deadline_first = True
        result = AsyncCall(self, src, dst, verb, payload, request_bytes,
                           response_bytes, deadline, src_cpu_s)
        if wait_s is not None:
            result._timeout = timeout
            result._deadline_first = deadline_first
            watchers = result._watchers = self._wheel.timer(
                wait_s, exact=deadline_first)[1]
            watchers[result] = result._expire
        return result

    def call_local(self, handler: Any, *args: Any) -> Event:
        """Call a verb's ``handler`` on its own node and wait for it like
        :meth:`call_async`'s result: no wire, no RPC CPU, no timeout, and
        not counted as an RPC.

        The event a handler returns comes back as it is — no process,
        nothing to cancel — with the fan-out convention kept where a
        bounded stage can refuse: a shed, and a deadline spent before or
        in the stage's queue, arrive as *values*, exactly as they would
        from a remote replica.  A generator (the caller needs to be able
        to cancel) runs as a process behind an :class:`AsyncCall`.
        """
        try:
            work = handler(*args)
        except (Overloaded, DeadlineExceeded) as refusal:
            refusal.__traceback__ = None  # as Process._finalize does
            return _settled(self.env, refusal)
        if Event not in work.__class__.__mro__:
            return _LocalCall(self.env, work)
        if work.__class__ is Served:
            work.failure_as_value = True
        return work
