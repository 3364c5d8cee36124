"""Background (asynchronous) read-repair tail.

Used whenever the global ``read_repair_chance`` fires, whatever
``blocking_read_repair`` says: the coordinator answers the client at its
consistency level, and this process compares the digests of the
replicas beyond the CL once they arrive, then reads and repairs the
stale ones off the latency path.  The work still consumes replica
CPU/disk/NIC time, so the throughput cost of repair remains visible —
only the per-request latency coupling disappears.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.kernel import AllOf, Process

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.coordinator import Coordinator

__all__ = ["background_reconcile"]


def background_reconcile(coordinator: "Coordinator", key: str,
                         expected_bytes: int, data_replica: int,
                         data_resp, digest_replicas: list[int],
                         digest_procs: list[Process]) -> Generator:
    """Compare all digests once they arrive; repair stale replicas."""
    if digest_procs:
        yield AllOf(coordinator.env, digest_procs)
    data_ts: Optional[float] = data_resp[1] if data_resp is not None else None
    responded: list[int] = []
    mismatch = False
    for replica_id, proc in zip(digest_replicas, digest_procs):
        if isinstance(proc.value, Exception):
            continue
        responded.append(replica_id)
        if proc.value != data_ts:
            mismatch = True
    if not mismatch:
        return
    coordinator.stats["background_repairs"] += 1
    yield from coordinator._reconcile(key, expected_bytes, data_replica,
                                      data_resp, responded, blocking=False)
