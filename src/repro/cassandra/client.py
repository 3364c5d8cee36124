"""Driver session: round-robin coordinators, per-request consistency."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.coordinator import ReadTimeoutError, WriteTimeoutError
from repro.cassandra.deployment import CassandraCluster
from repro.cluster.node import Node
from repro.cluster.topology import (DEFAULT_CLIENT_OVERHEAD_S,
                                    DeadlineExceeded, DeadNodeError,
                                    RpcTimeout)
from repro.sim.resources import Overloaded

__all__ = ["CassandraSession"]

#: Failures the driver retries on another coordinator: the request may
#: never have reached the ring (coordinator died) or timed out waiting on
#: a replica that a healthier coordinator can route around.  All paper
#: operations are timestamped upserts, so the retry is idempotent.
#: ``Overloaded`` (a shed request) retries against the next host too —
#: but under cluster-wide overload the final attempt's shed surfaces to
#: the caller under its own name.  ``UnavailableError`` is *not* here —
#: it is a definitive answer (too few live replicas for the CL) that no
#: coordinator choice can fix.
RETRYABLE_ERRORS = (RpcTimeout, DeadNodeError,
                    ReadTimeoutError, WriteTimeoutError, Overloaded)


class CassandraSession:
    """Client-side session (the DataStax-driver analogue).

    Requests round-robin over the live ring members, as the paper's YCSB
    client did; read and write consistency levels are set separately
    (paper §2) and can be overridden per request.
    """

    def __init__(self, cassandra: CassandraCluster, client_node: Node,
                 read_cl: ConsistencyLevel = ConsistencyLevel.ONE,
                 write_cl: ConsistencyLevel = ConsistencyLevel.ONE,
                 op_timeout_s: float = 10.0,
                 dc_aware: bool = True,
                 retries: int = 1,
                 deadline_s: Optional[float] = None,
                 client_overhead_s: float = DEFAULT_CLIENT_OVERHEAD_S) -> None:
        self.cassandra = cassandra
        self.cluster = cassandra.cluster
        self.client_node = client_node
        self.read_cl = read_cl
        self.write_cl = write_cl
        self.op_timeout_s = op_timeout_s
        #: End-to-end per-operation budget.  The absolute deadline rides
        #: the request envelope to the coordinator and its replica RPCs;
        #: once spent, queued replica work is withdrawn and the op fails
        #: with :class:`DeadlineExceeded` (never retried — the budget
        #: covers retries too).  ``None`` = no deadline propagation.
        self.deadline_s = deadline_s
        #: Extra attempts on :data:`RETRYABLE_ERRORS`, each against the
        #: next round-robin coordinator (the DataStax driver's default
        #: RetryPolicy next-host behaviour).
        self.retries = retries
        #: Driver-side CPU per operation (serialization, bookkeeping),
        #: charged on the client node ahead of the first attempt's request
        #: serialization — fused into the RPC's own core reservation so it
        #: costs no extra kernel event (see ``cluster.topology.AsyncCall``).
        self.client_overhead_s = client_overhead_s
        self._rr_index = 0
        #: On geo clusters, prefer coordinators in the client's own
        #: datacenter (the driver's DCAwareRoundRobinPolicy default).
        self.dc_aware = dc_aware

    def _coordinator_pool(self) -> list[Node]:
        members = self.cassandra.coordinator_nodes
        datacenters = getattr(self.cluster, "node_datacenter", None)
        if not self.dc_aware or datacenters is None:
            return members
        my_dc = datacenters.get(self.client_node.node_id)
        local = [n for n in members
                 if datacenters.get(n.node_id) == my_dc and n.alive]
        if local:
            return local
        # The whole home DC is down.  LOCAL_QUORUM's guarantee is "a
        # quorum of *one* DC's replicas" — it only composes into strong
        # reads while every operation coordinates in the same DC.
        # Falling back to a remote coordinator would silently turn it
        # into "a quorum of whichever DC answered" (no overlap between
        # a eu-west write quorum and a us-west read quorum), so like
        # the DataStax DCAware policy we refuse and fail the operation
        # honestly.  Weaker levels (LOCAL_ONE) promise nothing a remote
        # coordinator can break: they degrade gracefully over the WAN.
        if ConsistencyLevel.LOCAL_QUORUM in (self.read_cl, self.write_cl):
            return []
        return members

    def _next_coordinator(self) -> Node:
        members = self._coordinator_pool()
        for _ in range(len(members)):
            node = members[self._rr_index % len(members)]
            self._rr_index += 1
            if node.alive:
                return node
        raise DeadNodeError("no live Cassandra coordinator")

    def _op_deadline(self) -> Optional[float]:
        """Absolute deadline for an operation starting now (incl. retries)."""
        if self.deadline_s is None:
            return None
        return self.cluster.env._now + self.deadline_s

    def _call(self, handler: str, make_payload, request_bytes: int,
              response_bytes: int,
              deadline: Optional[float] = None) -> Generator:
        """One coordinator RPC, retried per the session's retry policy.

        ``make_payload`` is re-evaluated per attempt so write timestamps
        stay fresh across retries.
        """
        for attempt in range(self.retries + 1):
            coordinator = self._next_coordinator()
            try:
                result = yield self.cluster.call_async(
                    self.client_node, coordinator, handler, make_payload(),
                    request_bytes=request_bytes,
                    response_bytes=response_bytes,
                    timeout=self.op_timeout_s, deadline=deadline,
                    src_cpu_s=self.client_overhead_s if attempt == 0 else 0.0)
                if isinstance(result, Exception):
                    raise result
            except DeadlineExceeded:
                # The op's end-to-end budget is spent; retrying cannot
                # help (the deadline covers all attempts).
                raise
            except RETRYABLE_ERRORS:
                if attempt == self.retries:
                    raise
                continue
            return result

    # -- operations -----------------------------------------------------

    def insert(self, key: str, value: Any, size: int,
               cl: Optional[ConsistencyLevel] = None) -> Generator:
        """Write one row at the session's (or given) write CL."""
        cl = cl or self.write_cl
        deadline = self._op_deadline()
        result = yield from self._call(
            "c.coord_write",
            lambda: (key, value, size, self.cluster.env._now, cl.value,
                     deadline),
            request_bytes=size + 80, response_bytes=20, deadline=deadline)
        return result

    def read(self, key: str, expected_bytes: int = 1024,
             cl: Optional[ConsistencyLevel] = None) -> Generator:
        """Read one row; returns ``(value, timestamp)`` or None."""
        cl = cl or self.read_cl
        deadline = self._op_deadline()
        result = yield from self._call(
            "c.coord_read", lambda: (key, cl.value, expected_bytes, deadline),
            request_bytes=70, response_bytes=expected_bytes + 30,
            deadline=deadline)
        return result

    def scan(self, start_key: str, limit: int, record_bytes: int = 1024,
             cl: Optional[ConsistencyLevel] = None) -> Generator:
        """Token-order scan from ``start_key``."""
        cl = cl or self.read_cl
        deadline = self._op_deadline()
        rows = yield from self._call(
            "c.coord_scan",
            lambda: (start_key, limit, cl.value, record_bytes, deadline),
            request_bytes=80, response_bytes=record_bytes * limit,
            deadline=deadline)
        return rows
