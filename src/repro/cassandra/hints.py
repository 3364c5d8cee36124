"""Hinted handoff.

When a write's target replica is dead, the coordinator stores a *hint*
locally and delivers it once the target comes back — keeping writes
available at consistency level ONE through node failures (the paper's
availability story for Cassandra).

Geo deployments lean on this much harder: a multi-second datacenter
partition accumulates thousands of hints per coordinator, and replaying
them one at a time over a ~75 ms WAN round trip would take minutes of
simulated time.  Replay therefore ships hints in bounded concurrent
batches, and targets that fail delivery back off exponentially (doubling
from :data:`BASE_BACKOFF_S` up to :data:`MAX_BACKOFF_S`) instead of being
hammered every interval.  Hints are never dropped: an acknowledged write
stays durable until the healed replica has taken the mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.node import CassandraNode

__all__ = ["BASE_BACKOFF_S", "Hint", "HintStore", "MAX_BACKOFF_S",
           "REPLAY_BATCH"]

#: Max concurrent deliveries per replay wave (bounds WAN fan-in on a
#: freshly healed datacenter).
REPLAY_BATCH = 32
#: A target's first backoff after a failed delivery (seconds); it doubles
#: per further failure up to :data:`MAX_BACKOFF_S`.
BASE_BACKOFF_S = 0.5
MAX_BACKOFF_S = 8.0


class _BatchIncomplete(Exception):
    """Internal wait_for_k sentinel: some hints in a batch failed."""


@dataclass(frozen=True)
class Hint:
    target_node_id: int
    key: str
    value: object
    size: int
    timestamp: float


class HintStore:
    """Per-coordinator hint queue with a periodic delivery loop."""

    def __init__(self, owner: "CassandraNode",
                 replay_interval_s: float) -> None:
        self.owner = owner
        self.replay_interval_s = replay_interval_s
        self._hints: list[Hint] = []
        #: target node id -> earliest next delivery attempt (sim time).
        self._not_before: dict[int, float] = {}
        #: target node id -> current backoff (doubles per failure).
        self._backoff: dict[int, float] = {}
        self.stored = 0
        self.delivered = 0
        self.attempts = 0
        self.failures = 0
        owner.node.env.process(self._replayer(),
                               name=f"hints-{owner.node.node_id}")

    def __len__(self) -> int:
        return len(self._hints)

    def pending_for(self, cluster) -> int:
        """Hints whose target is currently alive (deliverable backlog)."""
        return sum(1 for h in self._hints
                   if cluster.node(h.target_node_id).alive)

    def store(self, hint: Hint) -> None:
        self._hints.append(hint)
        self.stored += 1
        # A hint is a local mutation (system.hints table): buffered append.
        self.owner.node.disk.append_buffered(hint.size + 64)

    def _replayer(self) -> Generator:
        from repro.cassandra.coordinator import wait_for_k
        cluster = self.owner.cluster
        env = self.owner.node.env
        while True:
            yield env.timeout(self.replay_interval_s)
            # A dead coordinator cannot deliver its own hints: replay
            # pauses while the owner is down and resumes after restart
            # (the hints sit in the owner's local system.hints table).
            if not self.owner.node.alive:
                continue
            now = env.now
            deliverable = [
                h for h in self._hints
                if cluster.node(h.target_node_id).alive
                and now >= self._not_before.get(h.target_node_id, 0.0)]
            index = 0
            while index < len(deliverable):
                if not self.owner.node.alive:
                    break  # owner crashed mid-replay
                batch = deliverable[index:index + REPLAY_BATCH]
                index += REPLAY_BATCH
                calls = [cluster.call_async(
                    self.owner.node, cluster.node(h.target_node_id),
                    "c.mutate", (h.key, h.value, h.size, h.timestamp),
                    request_bytes=h.size + 60, response_bytes=20,
                    timeout=2.0) for h in batch]
                try:
                    # k == len(calls): completes once every delivery in
                    # the wave has finished (successes early-exit, the
                    # failure path settles when all are processed).
                    yield wait_for_k(env, calls, len(calls),
                                     _BatchIncomplete())
                except _BatchIncomplete:
                    pass
                delivered = set()
                for hint, call in zip(batch, calls):
                    self.attempts += 1
                    ok = (call.processed
                          and not isinstance(call.value, Exception))
                    target = hint.target_node_id
                    if ok:
                        delivered.add(id(hint))
                        self.delivered += 1
                        self._not_before.pop(target, None)
                        self._backoff.pop(target, None)
                    else:
                        # Target died again (or timed out): keep the
                        # hint, back the target off exponentially.
                        self.failures += 1
                        backoff = self._backoff.get(
                            target, BASE_BACKOFF_S)
                        self._not_before[target] = env.now + backoff
                        self._backoff[target] = min(
                            backoff * 2.0, MAX_BACKOFF_S)
                if delivered:
                    # One pass, by identity: ``list.remove`` per hint is
                    # a scan through the dataclass ``__eq__``, quadratic
                    # in the backlog.  Hints stored during the wave's
                    # wait are not in the batch and stay, in order.
                    self._hints = [h for h in self._hints
                                   if id(h) not in delivered]
