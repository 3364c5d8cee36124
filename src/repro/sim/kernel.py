"""Event loop, events and processes for the discrete-event kernel.

The design follows the classic simpy architecture:

- :class:`Event` — a one-shot occurrence with a value (or an exception) and
  a list of callbacks.  Events move through three states: *pending* (not
  yet triggered), *triggered* (scheduled on the queue with a value), and
  *processed* (callbacks have run).
- :class:`Timeout` — an event that triggers ``delay`` time units after it
  is created.
- :class:`Process` — wraps a generator; every value the generator yields
  must be an :class:`Event`, and the process resumes when that event is
  processed.  A process is itself an event that triggers when the
  generator returns (its value is the generator's return value).
- :class:`Environment` — owns simulated time and the event queue.

Only the pieces the database models actually need are implemented, but
those pieces are implemented completely (failure propagation, interrupts,
condition events) because the replication protocols rely on them — e.g. a
hedged read waits on ``AnyOf(primary, timeout)`` and interrupts the
loser of the race that follows.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from heapq import heappush
from types import GeneratorType
from typing import Any, Callable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "ModelledFailure",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Priority for events scheduled urgently (ahead of normal events at the
#: same timestamp).  Used when a process must observe an event before any
#: sibling scheduled "now".
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event value before the event triggers


class SimulationError(Exception):
    """Raised for kernel misuse (yielding non-events, double triggers...)."""


class ModelledFailure(Exception):
    """Marker base for failures the simulation *models* (a timeout, a
    shed request, a cancelled wait) rather than bugs.

    They travel as values, so :meth:`Process._finalize` drops their
    traceback once delivered: it names no defect, and it would keep every
    frame it crossed — and through those the failed process itself —
    alive until the cyclic collector runs.
    """


class Interrupt(ModelledFailure):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        """The value passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run (with the event as argument) when the event is
        #: processed.  ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        # A failed event whose exception nobody consumed crashes the run;
        # waiting on the event (or calling defuse()) marks it handled.
        self._defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) on the queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` raised at
        its ``yield``.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, NORMAL, env._seq, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        if self._value is not _PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._seq += 1
        heappush(env._queue, (env._now, NORMAL, env._seq, self))

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __iter__(self) -> Generator:
        """``yield from event`` means ``yield event``.

        An operation that used to be a generator and now returns its
        completion event keeps working at every ``yield from op(...)``
        call site; new code yields the event itself and saves this
        frame.
        """
        return (yield self)

    # -- composition -------------------------------------------------

    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def _settled(env: "Environment", value: Any = None) -> Event:
    """An event that has already happened (nothing was waited for)."""
    event = Event(env)
    event.callbacks = None
    event._value = value
    return event


def _finish(done: Event, ok: bool, value: Any) -> None:
    """Complete ``done`` inline: its waiters run now, inside the kernel
    dispatch that produced ``value``, the way a terminating process
    settles — no queue event of its own."""
    done._ok = ok
    done._value = value
    callbacks, done.callbacks = done.callbacks, None
    for callback in callbacks:
        callback(done)
    if not ok and not done._defused:
        raise value


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    A pending timeout is genuinely *untriggered*: its value lives in
    ``_delayed_value`` until the queue dispatches it (an earlier version
    set ``_value`` eagerly, which made ``triggered`` true from creation
    — so ``env.run(until=env.timeout(10))`` returned immediately at
    ``now=0`` and :meth:`Condition._collect` needed a workaround to keep
    future timeouts out of condition values).
    """

    __slots__ = ("delay", "_delayed_value")

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 callback: Optional[Callable[[Event], None]] = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Timeouts are the most-allocated event by far (every RPC, every
        # think-time, every retry backoff), so skip the super() chain and
        # write the slots directly.  ``callback`` is the first subscriber,
        # taken at construction the way :class:`Process` takes its own.
        self.env = env
        self.callbacks = [] if callback is None else [callback]
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.delay = delay
        self._delayed_value = value
        env._seq += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._seq, self))

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError("a Timeout fires by itself; it cannot be "
                              "triggered manually")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("a Timeout fires by itself; it cannot be "
                              "failed manually")

    def trigger(self, event: "Event") -> None:
        raise SimulationError("a Timeout fires by itself; it cannot be "
                              "chain-triggered")


class Initialize(Event):
    """Internal event that starts something "now", ahead of every normal
    event of this instant: a freshly created process (``start`` is its
    ``_resume``), or a callback chain that begins where a process used
    to (a WAL round) and so keeps its place in the schedule."""

    __slots__ = ()

    def __init__(self, env: "Environment",
                 start: Callable[[Event], None]) -> None:
        self.env = env
        self.callbacks = [start]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq += 1
        heappush(env._queue, (env._now, URGENT, env._seq, self))


class Process(Event):
    """Wraps a generator and drives it through the event queue.

    The process is itself an event: it triggers when the generator returns
    (value = return value) or raises (the process fails with the
    exception).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator,
                 name: Optional[str] = None, eager: bool = False,
                 callback: Optional[Callable[[Event], None]] = None) -> None:
        if generator.__class__ is not GeneratorType \
                and not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        # ``callback`` subscribes to the completion before the body runs:
        # an eager process can terminate — or fail — inside its first
        # segment, and whoever turns that failure into a value must be
        # listening by then (:meth:`_finalize` raises what nobody took).
        self.callbacks = [] if callback is None else [callback]
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits on (None when running
        #: or terminated).
        self._target: Optional[Event] = None
        if not eager:
            Initialize(env, self._resume)
            return
        # Eager start: run the body's first segment inside the creator's
        # frame instead of through an Initialize queue event.  Semantics
        # differ only in intra-timestep ordering (the body runs before
        # the creator's next statement, not after its next yield), so
        # this is opt-in for hot spawn sites that tolerate that drift —
        # it removes one heap event + one dispatch per spawn on paths
        # that create a process per RPC.
        prev = env._active_process
        self._resume(env._started)
        env._active_process = prev

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield.

        Interrupting a terminated process is an error; interrupting a
        process that is about to resume anyway is allowed (the interrupt
        wins).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver via a broken urgent event so the interrupt arrives
        # before the target event's own callbacks.
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event, URGENT, 0.0)

    def _finalize(self) -> None:
        """Settle this terminated process inline (no queue round-trip).

        ``_ok``/``_value`` are already set.  Mirrors what the dispatch
        loop would do with the completion event one heap push later —
        waiters run now, at the same simulated time, inside the frame
        that drove the final segment — including the loud-crash check
        for unhandled failures.  Completion is the second queue event
        every process used to cost (after ``Initialize``); on a per-RPC
        process this pair was a third of the stress-cell schedule.
        """
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            raise self._value
        value = self._value
        # Raised or returned (the fan-out convention), a delivered
        # modelled failure is a plain value from here on; dropped after
        # the waiters ran because throwing it into one adds that waiter's
        # frames.  (``isinstance`` without the call: once per process.)
        if ModelledFailure in value.__class__.__mro__:
            value.__traceback__ = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or exception) of ``event``."""
        env = self.env
        # If an interrupt already resumed us and we since started waiting
        # on a different event, a stale callback may fire; ignore events
        # that are no longer our target (interrupt events never were).
        # An ignored *failure* must still be defused: this process was a
        # legitimate subscriber, and if it was the only one, an abandoned
        # event that later fail()s would otherwise crash the whole run
        # through :meth:`Environment.step`'s unhandled-failure check.
        if self._target is not None and event is not self._target \
                and not isinstance(event._value, Interrupt):
            if not event._ok:
                event._defused = True
            return
        if self._value is not _PENDING:
            if not event._ok:
                event._defused = True
            return
        env._active_process = self
        generator = self._generator
        send = generator.send
        while True:
            self._target = None
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self._finalize()
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._finalize()
                break

            if next_event.__class__ is not Event \
                    and not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_event!r}")
                try:
                    generator.throw(exc)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    self._finalize()
                    break
                except BaseException as exc2:
                    self._ok = False
                    self._value = exc2
                    self._finalize()
                    break
                continue

            if next_event.callbacks is None:
                # Already processed: resume immediately with its value.
                event = next_event
                continue
            next_event.callbacks.append(self._resume)
            self._target = next_event
            break
        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'dead'}>"


class Condition(Event):
    """Base for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.events = events = list(events)
        self._count = 0
        if not events:
            self.succeed(self._collect())
            return
        check = self._check
        for event in events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _evaluate(self, count: int) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        # Only events whose callbacks have run count as "happened" —
        # an event may be triggered (scheduled with a value) but not yet
        # dispatched when the condition completes.
        return {e: e._value for e in self.events
                if e.callbacks is None and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self._ok = False
            self._value = event._value
            self.env._schedule(self, NORMAL, 0.0)
            return
        self._count += 1
        if self._evaluate(self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers when *all* constituent events have succeeded."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count == len(self.events)


class AnyOf(Condition):
    """Triggers as soon as *any* constituent event succeeds."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count >= 1


class Environment:
    """Owns simulated time and the time-ordered event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: What every eager process is "resumed" with to run its first
        #: segment: one processed, successful, valueless event, shared —
        #: nothing ever writes to it.
        self._started = Event(self)
        self._started.callbacks = None
        self._started._value = None
        #: Events actually dispatched (stale queue entries excluded) —
        #: the denominator of every events/sec figure ``repro-bench
        #: perf`` reports.  Deterministic: two replica runs agree.
        self.processed_events = 0
        #: Optional hook called as ``trace(now, priority, seq, event)`` for
        #: every event the loop actually processes (already-processed
        #: queue entries, e.g. condition re-pushes, are not reported).
        #: ``(priority, seq)`` is the queue ordering key, so the call
        #: sequence *is* the kernel's schedule — two runs are
        #: deterministic replicas iff their trace streams are identical
        #: (see :class:`repro.sim.trace.KernelTracer`).
        self.trace: Optional[Callable[[float, int, int, Event], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event factories ---------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event owned by this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                callback: Optional[Callable[[Event], None]] = None) -> Timeout:
        """An event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value, callback)

    def process(self, generator: Generator, name: Optional[str] = None,
                eager: bool = False) -> Process:
        """Register ``generator`` as a new process starting "now".

        ``eager=True`` runs the body's first segment inline (see
        :class:`Process`) — same simulated time, different
        intra-timestep ordering; reserve it for hot per-RPC spawns.
        """
        return Process(self, generator, name=name, eager=eager)

    # -- scheduling / stepping ---------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        self._now, priority, seq, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return  # event was already processed (e.g. condition re-push)
        if event._value is _PENDING:
            # A timeout fires now: materialize its delayed value (pending
            # timeouts are the only untriggered events on the queue).
            event._value = event._delayed_value
        self.processed_events += 1
        if self.trace is not None:
            self.trace(self._now, priority, seq, event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Unhandled failure: surface it instead of losing it.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a time, or an
        :class:`Event` (run until the event triggers; returns its value).

        The dispatch loop is deliberately flat: :meth:`step` is inlined
        (it remains available for single-stepping) because at stress-cell
        scale the loop runs hundreds of thousands of iterations and the
        method call plus re-reads of ``self._queue``/``self.trace``
        dominate the profile.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until ({stop_time}) is in the past (now={self._now})")
        queue = self._queue
        pop = heapq.heappop
        processed = self.processed_events
        # Hoisted: installing a tracer mid-run is unsupported (the digest
        # would cover a partial schedule anyway).
        trace = self.trace
        try:
            while queue:
                if stop_event is not None \
                        and stop_event._value is not _PENDING:
                    if not stop_event._ok:
                        stop_event._defused = True
                        raise stop_event._value
                    return stop_event._value
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                # -- inlined step() ------------------------------------
                self._now, priority, seq, event = pop(queue)
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # already processed (e.g. condition re-push)
                event.callbacks = None
                if event._value is _PENDING:
                    # A timeout fires now: materialize its delayed value
                    # (pending timeouts are the only untriggered events
                    # on the queue).
                    event._value = event._delayed_value
                processed += 1
                if trace is not None:
                    trace(self._now, priority, seq, event)
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # Unhandled failure: surface it instead of losing it.
                    raise event._value
        finally:
            self.processed_events = processed
        if stop_event is not None and stop_event.triggered:
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value
        if stop_event is not None:
            raise SimulationError("simulation ended before the awaited event triggered")
        if stop_time != float("inf"):
            self._now = stop_time
        return None
