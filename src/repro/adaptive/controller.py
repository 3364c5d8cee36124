"""Closed-loop actuation: per-request CL override + decision log.

:class:`AdaptiveController` implements the
:class:`~repro.ycsb.db.DbBinding` protocol and sits *outermost* in the
binding stack::

    YcsbClient -> AdaptiveController -> [HistoryRecorder] ->
        CassandraSession

For every operation it (1) rolls the monitor's window, (2) asks the
policy for a consistency level, (3) applies it as the session's
per-request CL *before* delegating — so the history recorder (which
samples the session CL at invocation) records the CL actually issued,
and the coordinator receives it in the request payload — and (4)
appends the decision to a :class:`DecisionLog`.

Every input to a decision is deterministic simulation state (the
clock, the key, the sketch, closed windows), so the decision sequence
is a pure function of the cell config — the log's digest is the
bit-identity witness ``repro-bench adaptive`` caches and CI compares
across ``--jobs`` settings.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Generator

from repro.adaptive.monitor import STALENESS_S, WINDOW_S, Monitor
from repro.adaptive.policy import Policy
from repro.cassandra.consistency import ConsistencyLevel

if TYPE_CHECKING:  # pragma: no cover - annotations only, no engine
    from repro.cassandra.client import CassandraSession

__all__ = ["AdaptiveController", "DecisionLog"]


class DecisionLog:
    """Every (time, op kind, key, CL) decision one controller made."""

    def __init__(self) -> None:
        self.entries: list[tuple[float, str, str, str]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, at_s: float, kind: str, key: str,
               cl: ConsistencyLevel) -> None:
        self.entries.append((at_s, kind, key, cl.value))

    def digest(self) -> str:
        """Content hash of the full decision sequence (fixed-precision
        timestamps, so equal simulations hash equal)."""
        hasher = hashlib.sha256()
        for at_s, kind, key, cl in self.entries:
            hasher.update(f"{at_s:.9f}|{kind}|{key}|{cl}\n".encode())
        return hasher.hexdigest()

    def counts(self) -> dict:
        """``{op kind: {CL: decisions}}`` with sorted, stable keys."""
        out: dict[str, dict[str, int]] = {}
        for _, kind, _, cl in self.entries:
            per_kind = out.setdefault(kind, {})
            per_kind[cl] = per_kind.get(cl, 0) + 1
        return {kind: dict(sorted(cls.items()))
                for kind, cls in sorted(out.items())}

    def timeline(self, bucket_s: float) -> list[dict]:
        """Decision counts per CL in ``bucket_s``-wide time buckets —
        the "which level was the controller at, when" view a report
        prints next to the latency timeline."""
        buckets: dict[float, dict[str, int]] = {}
        for at_s, _, _, cl in self.entries:
            start = (at_s // bucket_s) * bucket_s
            per_bucket = buckets.setdefault(start, {})
            per_bucket[cl] = per_bucket.get(cl, 0) + 1
        return [{"start_s": start, "by_cl": dict(sorted(cls.items()))}
                for start, cls in sorted(buckets.items())]


class AdaptiveController:
    """DbBinding wrapper that picks a CL per request via the policy."""

    def __init__(self, inner, session: CassandraSession,
                 policy: Policy, monitor: Monitor) -> None:
        self.inner = inner
        self.session = session
        self.policy = policy
        self.monitor = monitor
        self.log = DecisionLog()
        # Window-close events drive the policy's state machine.
        monitor.on_window = policy.on_window

    # -- decision plumbing ----------------------------------------------

    def _decide_write(self, key: str) -> ConsistencyLevel:
        self.monitor.roll()
        cl = self.policy.decide_write(key)
        self.session.write_cl = cl
        self.log.record(self.monitor.clock(), "write", key, cl)
        return cl

    def _decide_read(self, kind: str, key: str,
                     at_risk: bool) -> ConsistencyLevel:
        self.monitor.roll()
        cl = self.policy.decide_read(key, at_risk)
        self.session.read_cl = cl
        self.log.record(self.monitor.clock(), kind, key, cl)
        return cl

    # -- DbBinding protocol ----------------------------------------------

    def write(self, key: str, value: Any, size: int) -> Generator:
        self._decide_write(key)
        invoked = self.monitor.clock()
        # The sketch learns the write at *invocation*: a read racing the
        # in-flight fan-out is exactly the at-risk population.
        self.monitor.observe_write(key, invoked)
        try:
            result = yield from self.inner.write(key, value, size)
        except Exception:
            self.monitor.observe_error()
            raise
        return result

    def read(self, key: str, size: int) -> Generator:
        at_risk = self.monitor.at_risk(key)
        cl = self._decide_read("read", key, at_risk)
        exposed = at_risk and cl.required(self.session.cassandra.config
                                          .replication) <= 1
        self.monitor.observe_read_decision(at_risk=at_risk, exposed=exposed)
        invoked = self.monitor.clock()
        try:
            result = yield from self.inner.read(key, size)
        except Exception:
            self.monitor.observe_error()
            raise
        self.monitor.observe_read_latency(self.monitor.clock() - invoked)
        return result

    def scan(self, start_key: str, limit: int,
             record_bytes: int) -> Generator:
        # Scans are served by one replica's local token range regardless
        # of CL (paper §4.3), so they take the read decision but do not
        # feed the read-latency windows.
        self._decide_read("scan", start_key, at_risk=False)
        try:
            rows = yield from self.inner.scan(start_key, limit, record_bytes)
        except Exception:
            self.monitor.observe_error()
            raise
        return rows

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe decision report (rides the cell cache)."""
        self.monitor.flush()
        slo = self.monitor.slo
        return {
            "policy": self.policy.name,
            "slo": {"p95_ms": slo.p95_ms, "staleness_s": STALENESS_S,
                    "risk_rate": slo.risk_rate, "window_s": WINDOW_S},
            "decisions": len(self.log),
            "by_cl": self.log.counts(),
            "policy_counters": self.policy.counters(),
            "windows": [w.to_dict() for w in self.monitor.windows],
            "timeline": self.log.timeline(WINDOW_S),
            "digest": self.log.digest(),
        }
