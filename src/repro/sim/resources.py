"""Shared-resource primitives for the simulation kernel.

- :class:`Resource` — ``capacity`` identical slots with a FIFO wait queue
  (models disk queues, CPU cores, RPC handler pools).
- :class:`PriorityResource` — like :class:`Resource` but the wait queue is
  ordered by priority (models foreground vs background I/O).
- :class:`BoundedResource` — a :class:`Resource` whose wait queue has a
  maximum depth; requests beyond it are rejected immediately with
  :class:`Overloaded` (models bounded server queues + load shedding).
  :class:`Admission` is a claim on such a stage — granted, shed, or
  expired in the queue — and :class:`Served` one request's whole passage
  through it, as callbacks.
- :class:`Store` — an unbounded-or-bounded FIFO buffer of items (models
  mailboxes and RPC channels).
- :class:`Container` — a continuous level with put/get amounts (models
  memory budgets such as memtable thresholds).

All waiting is expressed through events, so processes simply ``yield`` the
returned request:

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)

Cancelling a queued request (deadline expiry, hedged-request loser) is a
*lazy* withdrawal: the request is flagged and skipped when it surfaces
from the heap, so cancellation is O(1) no matter how deep the queue —
and :attr:`Resource.queue_len` excludes those ghosts so shed decisions
and queue statistics only ever see live waiters.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.kernel import (AnyOf, Environment, Event, ModelledFailure,
                              Process, SimulationError, Timeout, _PENDING,
                              _finish)

__all__ = ["Admission", "BoundedResource", "Container", "Overloaded",
           "PriorityResource", "Request", "Resource", "Served", "Store"]


class Overloaded(ModelledFailure):
    """A bounded queue rejected a request (load shed, not a timeout).

    Raised synchronously by :meth:`BoundedResource.request` so the caller
    sheds *before* any work or waiting happens — overload surfaces as an
    explicit fast error instead of unbounded queueing latency.
    """


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot.

    Usable as a context manager: leaving the ``with`` block releases the
    slot (or cancels the claim if it was never granted).
    """

    __slots__ = ("resource", "priority", "key", "cancelled")

    def __init__(self, resource: "Resource", priority: int = 0,
                 granted: bool = False) -> None:
        # Requests are allocated on every resource claim; write the Event
        # slots directly (no super() chain), and when the claim is being
        # granted synchronously skip the callbacks-list allocation too.
        self.env = resource.env
        self.callbacks = None if granted else []
        self._value = None if granted else _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        #: True once the claim was withdrawn while still queued (lazy
        #: deletion: the heap entry is skipped, not removed).
        self.cancelled = False
        resource._seq += 1
        self.key = (priority, resource._seq)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a claim that has not been granted yet."""
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Requests currently holding a slot.
        self.users: list[Request] = []
        #: Requests waiting for a slot, as a heap of (key, request).
        self._waiting: list[tuple[tuple[int, int], Request]] = []
        #: Cancelled requests still sitting in the heap (lazy deletion).
        self._ghosts = 0
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue_len(self) -> int:
        """Number of *live* requests waiting for a slot.

        Lazily-deleted (cancelled) waiters still occupy heap entries but
        are excluded here, so admission decisions and queue statistics
        never count ghosts.
        """
        return len(self._waiting) - self._ghosts

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event triggers when granted.

        An uncontended claim is granted *synchronously*: the returned
        request is already processed, so a process yielding it resumes
        inline instead of paying a queue round-trip (the dominant cost
        of ``cpu_work``/NIC claims at stress-cell scale).  Contended
        claims still trigger through the queue when a slot frees up.
        """
        granted = len(self.users) < self.capacity
        req = Request(self, priority, granted)
        if granted:
            self.users.append(req)
        else:
            heapq.heappush(self._waiting, (req.key, req))
        return req

    def release(self, request: Request) -> None:
        """Return ``request``'s slot (or withdraw it from the queue).

        Withdrawing a queued request is O(1): the request is flagged
        cancelled and skipped when the heap surfaces it.
        """
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif not request.cancelled and not request.triggered:
            request.cancelled = True
            self._ghosts += 1

    def _grant_next(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            _, req = heapq.heappop(self._waiting)
            if req.cancelled:
                self._ghosts -= 1
                continue
            if req.triggered:
                continue
            self.users.append(req)
            req.succeed()


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is ordered by priority.

    Lower ``priority`` values are served first; ties are FIFO.
    """

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; lower ``priority`` values are served first."""
        return super().request(priority=priority)


class BoundedResource(Resource):
    """A :class:`Resource` with a bounded wait queue and load shedding.

    When every slot is busy *and* ``max_queue`` live requests are already
    waiting, :meth:`request` raises :class:`Overloaded` synchronously —
    the request never enters the system.  This is the server-side bounded
    queue that turns overload into explicit errors instead of unbounded
    latency; ``shed`` counts the rejections.
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 max_queue: int = 0) -> None:
        if max_queue < 0:
            raise SimulationError(f"max_queue must be >= 0, got {max_queue}")
        super().__init__(env, capacity)
        self.max_queue = max_queue
        #: Requests rejected because the queue was full.
        self.shed = 0

    def request(self, priority: int = 0) -> Request:
        """Claim a slot, or raise :class:`Overloaded` if the queue is full."""
        if len(self.users) >= self.capacity:
            waiting = len(self._waiting) - self._ghosts
            if waiting >= self.max_queue:
                self.shed += 1
                raise Overloaded(f"queue full ({waiting} waiting, "
                                 f"{self.capacity} slots busy)")
        return super().request(priority=priority)


class Admission(Event):
    """A claim on a :class:`BoundedResource` slot by a request that may
    be refused or may give up waiting.  Three outcomes: *shed* —
    :class:`Overloaded` raised from the constructor, nothing queued;
    *granted* — succeeds with ``slot`` (a :class:`Request`, to release),
    already processed when a slot was free, whatever the deadline;
    *expired in the queue* — ``deadline`` (absolute, or ``None``) passed
    first: the claim is withdrawn and the event fails with
    ``expired(...)``, which a deadline already spent on arrival at a busy
    stage raises at once.  Releasing ``slot`` is right whether it is
    held, queued or withdrawn — what an interrupted waiter does.

    The slot-versus-deadline race is a queued ``AnyOf`` over the claim
    and a ``Timeout``, as when a process waited for it (those events are
    part of the model's schedule); the verdict is delivered inline.
    """

    __slots__ = ("slot", "_expired")

    def __init__(self, pool: BoundedResource, deadline: Optional[float],
                 expired: type) -> None:
        self.slot = slot = pool.request()
        self.env = env = pool.env
        self._ok = True
        self._defused = False
        if slot.callbacks is None:
            self.callbacks = None
            self._value = slot
            return
        self.callbacks = []
        self._value = _PENDING
        self._expired = expired
        if deadline is None:
            slot.callbacks.append(self._decided)
        elif deadline <= env._now:
            slot.cancel()
            raise expired("deadline spent before the queue")
        else:
            AnyOf(env, [slot, Timeout(env, deadline - env._now)]
                  ).callbacks.append(self._decided)

    def _decided(self, _race: Event) -> None:
        slot = self.slot
        if slot.callbacks is None:
            _finish(self, True, slot)
        else:
            slot.cancel()
            _finish(self, False, self._expired("deadline expired in the queue"))


class Served(Event):
    """One request's passage through a bounded stage, as callbacks:
    admitted → ``gate`` open → ``operate(*args)`` → slot released →
    complete, inline, with the operation's outcome.

    ``claim`` is the request's :class:`Admission`, or ``None`` where
    nothing bounds the stage; ``gate`` anything whose ``available_at``
    the operation must not start before (a reopening region), looked at
    once the slot is held.  ``operate`` returns its completion event or a
    generator — only that becomes a process, and only now.  ``then`` sees
    the finished operation first, as a first subscriber would, to count
    it or rewrite its value.  The slot goes back before the waiters
    hear, so the next grant is scheduled ahead of whatever they schedule.
    ``failure_as_value`` is the fan-out convention, for a coordinator
    waiting on its own node: an expiry *succeeds*, the exception its value.
    """

    __slots__ = ("claim", "gate", "operate", "args", "then",
                 "failure_as_value")

    def __init__(self, env: Environment, claim: Optional[Admission],
                 operate: Callable[..., Any], args: tuple,
                 then: Optional[Callable[[Event], None]] = None,
                 gate: Any = None) -> None:
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.claim = claim
        self.gate = gate
        self.operate = operate
        self.args = args
        self.then = then
        self.failure_as_value = False
        if claim is None or claim.callbacks is None:
            self._admitted(claim)
        else:
            claim.callbacks.append(self._admitted)

    def _admitted(self, claim: Optional[Admission]) -> None:
        if claim is not None and not claim._ok:
            claim._defused = True  # expired in the queue: ours to report
            _finish(self, self.failure_as_value, claim._value)
            return
        gate = self.gate
        env = self.env
        if gate is not None and gate.available_at > env._now:
            Timeout(env, gate.available_at - env._now
                    ).callbacks.append(self._operate)
        else:
            self._operate()

    def _operate(self, _opened: Optional[Event] = None) -> None:
        try:
            work = self.operate(*self.args)
        except BaseException:
            self._release()
            raise
        if Event not in work.__class__.__mro__:
            Process(self.env, work, None, True, self._operated)
        elif work.callbacks is None:
            self._operated(work)
        else:
            work.callbacks.append(self._operated)

    def _operated(self, work: Event) -> None:
        self._release()
        if self.then is not None:
            self.then(work)
        if not work._ok:
            work._defused = True  # the operation's failure is this event's
        _finish(self, work._ok, work._value)

    def _release(self) -> None:
        if self.claim is not None:
            slot = self.claim.slot
            slot.resource.release(slot)


class StorePut(Event):
    """A pending put: triggers once its item is accepted by the store."""

    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        super().__init__(env)
        self.item = item


class Store:
    """A FIFO buffer of items with optional capacity.

    ``put(item)`` returns an event that triggers once the item is in the
    buffer (immediately unless the store is full); ``get()`` returns an
    event that triggers with the oldest item once one is available.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._getters: list[Event] = []
        self._putters: list[StorePut] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Offer ``item``; triggers once buffered (immediately unless full).

        Like :meth:`Resource.request`, the uncontended path completes
        synchronously (the returned event is already processed).
        """
        event = StorePut(self.env, item)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event._value = None
            event.callbacks = None
            self._serve_getters()
        else:
            self._putters.append(event)
        return event

    def get(self) -> Event:
        """Take the oldest item; triggers once one is available.

        The non-empty path completes synchronously (see :meth:`put`).
        """
        event = Event(self.env)
        if self.items:
            event._value = self.items.pop(0)
            event.callbacks = None
            self._serve_putters()
        else:
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.pop(0)
            if getter.triggered:
                continue
            getter.succeed(self.items.pop(0))

    def _serve_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.pop(0)
            if putter.triggered:
                continue
            self.items.append(putter.item)
            putter.succeed()
            self._serve_getters()


class Container:
    """A continuous level (e.g. bytes of memory) with blocking put/get."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._putters: list[tuple[float, Event]] = []
        self._getters: list[tuple[float, Event]] = []

    @property
    def level(self) -> float:
        """Current amount held by the container."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; triggers once it fits under the capacity."""
        if amount <= 0:
            raise SimulationError(f"put amount must be positive, got {amount}")
        if amount > self.capacity:
            raise SimulationError(f"put amount {amount} exceeds capacity")
        event = Event(self.env)
        self._putters.append((amount, event))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; triggers once the level covers it."""
        if amount <= 0:
            raise SimulationError(f"get amount must be positive, got {amount}")
        event = Event(self.env)
        self._getters.append((amount, event))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, event = self._putters[0]
                if self._level + amount <= self.capacity and not event.triggered:
                    self._putters.pop(0)
                    self._level += amount
                    event.succeed()
                    progressed = True
                elif event.triggered:
                    self._putters.pop(0)
                    progressed = True
            if self._getters:
                amount, event = self._getters[0]
                if amount <= self._level and not event.triggered:
                    self._getters.pop(0)
                    self._level -= amount
                    event.succeed()
                    progressed = True
                elif event.triggered:
                    self._getters.pop(0)
                    progressed = True
