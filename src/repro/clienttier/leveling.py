"""Queue-based load leveling: a bounded buffer before a fixed worker pool.

The undefended open-loop client spawns one in-flight operation per
arrival — under a 10x crowd that is thousands of concurrent requests
camped on the store's queues, each one making every other one slower.
The leveler caps concurrency structurally: arrivals enqueue into a
bounded queue drained by ``workers`` long-lived simulation processes,
and once the queue is full further arrivals are *shed at the client*
(cheap, explicit, counted) instead of queueing invisibly.  This is the
queue-based load-leveling pattern plus the "bound your queues" rule of
every overload postmortem.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator

from repro.sim.kernel import AllOf, Environment, Event

__all__ = ["LoadLeveler", "LoadShed"]


class LoadShed(Exception):
    """The leveling queue was full: the request was dropped client-side."""


class LoadLeveler:
    """Bounded queue + fixed worker pool for client-side concurrency.

    ``try_submit`` hands a zero-argument *thunk* (returning the
    operation's generator) to an idle worker, or queues it, or — when
    ``max_queue`` thunks are already waiting — refuses it.  Thunks must
    handle their own exceptions: the workers are shared plumbing, and an
    escaping error would kill a pool worker for every later request.
    """

    def __init__(self, env: Environment, workers: int,
                 max_queue: int) -> None:
        if workers < 1 or max_queue < 1:
            raise ValueError("workers and max_queue must be >= 1")
        self.env = env
        self.max_queue = max_queue
        self._queue: deque[Callable[[], Generator]] = deque()
        self._idle: deque[Event] = deque()
        self._closed = False
        self.submitted = 0
        self.shed = 0
        self.completed = 0
        self.peak_depth = 0
        self._workers = [env.process(self._worker(), name=f"leveler-{i}")
                         for i in range(workers)]

    def try_submit(self, thunk: Callable[[], Generator]) -> bool:
        """Accept ``thunk`` for execution; False = shed (queue full)."""
        if self._closed:
            raise RuntimeError("leveler already closed")
        if len(self._queue) >= self.max_queue:
            self.shed += 1
            return False
        self._queue.append(thunk)
        self.submitted += 1
        if len(self._queue) > self.peak_depth:
            self.peak_depth = len(self._queue)
        if self._idle:
            self._idle.popleft().succeed()
        return True

    def _worker(self) -> Generator:
        while True:
            while self._queue:
                thunk = self._queue.popleft()
                yield from thunk()
                self.completed += 1
            if self._closed:
                return
            wakeup = Event(self.env)
            self._idle.append(wakeup)
            yield wakeup

    def drain(self) -> Generator:
        """Close the intake, finish the backlog, stop the workers.

        A simulation generator: ``yield from leveler.drain()`` returns
        once every accepted thunk has completed.  Workers keep emptying
        the queue after close — the backlog was admitted, so it runs.
        """
        self._closed = True
        while self._idle:
            self._idle.popleft().succeed()
        yield AllOf(self.env, self._workers)

    def stats(self) -> dict:
        return {"submitted": self.submitted, "shed": self.shed,
                "completed": self.completed, "peak_depth": self.peak_depth}
