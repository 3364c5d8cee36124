"""Shared-resource primitives for the simulation kernel.

- :class:`Resource` — ``capacity`` identical slots with a wait queue
  served lowest ``priority`` first, FIFO among equals (models the disk,
  where foreground reads go ahead of background I/O, and the WAL's
  in-flight window).
- :class:`BoundedResource` — a :class:`Resource` whose wait queue has a
  maximum depth; requests beyond it are rejected immediately with
  :class:`Overloaded` (models bounded server queues + load shedding).
  :class:`Admission` is a claim on such a stage — granted, shed, or
  expired in the queue — and :class:`Served` one request's whole passage
  through it, as callbacks.
- :func:`serve` — how a verb handler reaches its storage engine through
  its stage: the engine's own event where nothing can make the request
  wait, a :class:`Served` behind an :class:`Admission` everywhere else.

All waiting is expressed through events, so processes simply ``yield`` the
returned request:

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)

Cancelling a queued request (a deadline expiring in the queue, a ``with``
block left before its grant) is a *lazy* withdrawal: the request is flagged and skipped when it surfaces
from the heap, so cancellation is O(1) no matter how deep the queue —
and :attr:`Resource.queue_len` excludes those ghosts so shed decisions
and queue statistics only ever see live waiters.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.kernel import (AnyOf, Environment, Event, ModelledFailure,
                              SimulationError, Timeout, _PENDING, _finish)

__all__ = ["Admission", "BoundedResource", "Overloaded", "Request",
           "Resource", "Served", "serve"]


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
    """``capacity`` identical slots; waiters are served lowest
    ``priority`` first, FIFO among equals."""

    def __init__(self, env: Environment, capacity: int) -> None:
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
        inline instead of paying a queue round-trip (the common case of
        a spindle or a handler slot).  Contended claims still trigger
        through the queue when a slot frees up; lower ``priority``
        values are served first.
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
            if self._waiting:
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


class BoundedResource(Resource):
    """A :class:`Resource` with a bounded wait queue and load shedding.

    When every slot is busy *and* ``max_queue`` live requests are already
    waiting, :meth:`request` raises :class:`Overloaded` synchronously —
    the request never enters the system.  This is the server-side bounded
    queue that turns overload into explicit errors instead of unbounded
    latency; ``shed`` counts the rejections.
    """

    def __init__(self, env: Environment, capacity: int,
                 max_queue: int) -> None:
        if max_queue < 0:
            raise SimulationError(f"max_queue must be >= 0, got {max_queue}")
        super().__init__(env, capacity)
        self.max_queue = max_queue
        #: Requests rejected because the queue was full.
        self.shed = 0

    def request(self, priority: int = 0) -> Request:
        """Claim a slot, or raise :class:`Overloaded` if the queue is full.

        :meth:`Resource.request` written out, behind the shed check."""
        if len(self.users) < self.capacity:
            req = Request(self, priority, True)
            self.users.append(req)
            return req
        waiting = len(self._waiting) - self._ghosts
        if waiting >= self.max_queue:
            self.shed += 1
            raise Overloaded(f"queue full ({waiting} waiting, "
                             f"{self.capacity} slots busy)")
        req = Request(self, priority, False)
        heapq.heappush(self._waiting, (req.key, req))
        return req


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
    held, queued or withdrawn, as leaving a ``with`` block does.

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
    """One request's passage through a stage that can make it wait, as
    callbacks: admitted → ``gate`` open → ``operate(*args)`` → slot
    released → complete, inline, with the operation's outcome.  Built by
    :func:`serve`, which skips it where nothing can make the request wait.

    ``claim`` is the request's :class:`Admission`, or ``None`` where
    nothing bounds the stage; ``gate`` anything whose ``available_at``
    the operation must not start before (a reopening region), looked at
    once the slot is held.  ``operate`` returns its completion event
    (every engine verb does; none is a generator).  ``then`` sees
    the finished operation first, as a first subscriber would, to count
    it or rewrite its value.  The slot goes back before the waiters
    hear, so the next grant is scheduled ahead of whatever they schedule.
    ``failure_as_value`` is the fan-out convention, for a coordinator
    waiting on its own node: an expiry *succeeds*, the exception its value.
    """

    __slots__ = ("claim", "gate", "operate", "args", "then",
                 "failure_as_value")

    def __init__(self, env: Environment, claim: Optional[Admission],
                 operate: Callable[..., Event], args: tuple,
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
        if claim is not None and claim.callbacks is not None:
            claim.callbacks.append(self._admitted)
        elif gate is None:
            self._operate()  # a free slot, nothing to wait for
        else:
            self._admitted(claim)

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
        if work.callbacks is None:
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


def serve(env: Environment, pool: Optional[BoundedResource],
          deadline: Optional[float], expired: type,
          operate: Callable[..., Event], args: tuple,
          then: Optional[Callable[[Event], None]] = None,
          gate: Any = None) -> Event:
    """One request through a verb's stage to its storage engine.

    Where no ``pool`` bounds the stage and ``gate`` (a reopening region,
    or ``None``) is open, nothing can make the request wait: the result
    is the engine's own event, ``operate(*args)``, with ``then`` as its
    first subscriber.  Everywhere else it is that operation as a
    :class:`Served` behind the request's :class:`Admission` — claimed,
    or shed by raising :class:`Overloaded`, right here, before the
    engine books any CPU; ``deadline`` and ``expired`` are the claim's.
    """
    if pool is None and (gate is None or gate.available_at <= env._now):
        work = operate(*args)
        if then is not None:
            if work.callbacks is None:
                then(work)
            else:
                work.callbacks.append(then)
        return work
    return Served(env, None if pool is None
                  else Admission(pool, deadline, expired),
                  operate, args, then, gate)
