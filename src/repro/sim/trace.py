"""Kernel event tracing: a digest over the exact event schedule.

The kernel is deterministic by construction — same seed streams, same
process creation order, same schedule.  :class:`KernelTracer` turns that
claim into something checkable: it subscribes to the environment's trace
hook and folds every processed event (time, queue priority, scheduling
sequence number, event type, process name) into an incremental SHA-256.
Two runs are byte-identical replicas iff their digests match.

This is the foundation under the consistency seed explorer's
"minimal reproducing seed" claim (:mod:`repro.core.explorer`):
a violation found at seed *s* can be replayed because seed *s* pins the
entire kernel schedule, which the deterministic-replay pin tests verify
against this digest.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.sim.kernel import Environment, Event

__all__ = ["KernelTracer"]


class KernelTracer:
    """Accumulates a SHA-256 over an environment's kernel event schedule.

    The digest is incremental, so tracing a multi-million-event run costs
    O(1) memory; pass ``keep_lines=True`` (tests, debugging) to also
    retain the formatted trace lines.
    """

    def __init__(self, env: Environment, keep_lines: bool = False) -> None:
        if env.trace is not None:
            raise ValueError("environment already has a trace hook")
        self.env = env
        self._sha = hashlib.sha256()
        #: Number of processed events folded into the digest so far.
        self.events = 0
        self.lines: Optional[list[str]] = [] if keep_lines else None
        env.trace = self._record

    def _record(self, now: float, priority: int, seq: int,
                event: Event) -> None:
        # repr() of the float keeps full precision, so two schedules that
        # differ anywhere past the decimal point hash differently.
        line = (f"{now!r}|{priority}|{seq}|{type(event).__name__}"
                f"|{getattr(event, 'name', '')}")
        self._sha.update(line.encode())
        self._sha.update(b"\n")
        self.events += 1
        if self.lines is not None:
            self.lines.append(line)

    def digest(self) -> str:
        """Hex digest of the schedule traced so far (callable repeatedly)."""
        return self._sha.hexdigest()
