"""Driver session: round-robin coordinators, per-request consistency."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.coordinator import ReadTimeoutError, WriteTimeoutError
from repro.cluster.node import Node
from repro.cluster.topology import (CLIENT_OVERHEAD_S, DeadlineExceeded,
                                    DeadNodeError, RpcTimeout)
from repro.sim.resources import Overloaded

if TYPE_CHECKING:  # pragma: no cover - the deployment builds its sessions
    from repro.cassandra.deployment import CassandraCluster

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
    client did — on a geo cluster, over those in the client's own
    datacenter first (the driver's DCAwareRoundRobinPolicy default).
    Read and write consistency levels are set separately
    (paper §2): they start at the deployment's ``CassandraConfig``, and
    can be set on the session or overridden per request.  The session is
    a cell's :class:`~repro.ycsb.db.DbBinding` as it stands.
    """

    def __init__(self, cassandra: CassandraCluster, client_node: Node,
                 op_timeout_s: float = 10.0,
                 retries: int = 1) -> None:
        self.cassandra = cassandra
        self.cluster = cassandra.cluster
        self.client_node = client_node
        self.read_cl = cassandra.config.read_cl
        self.write_cl = cassandra.config.write_cl
        self.op_timeout_s = op_timeout_s
        #: End-to-end per-operation budget (the deployment's
        #: ``tail.deadline_s``).  The absolute deadline rides the request
        #: envelope to the coordinator and its replica RPCs; once spent,
        #: queued replica work is withdrawn and the op fails with
        #: :class:`DeadlineExceeded` (never retried — the budget covers
        #: retries too).  ``None`` = no deadline propagation.
        self.deadline_s = cassandra.tail.deadline_s
        #: Extra attempts on :data:`RETRYABLE_ERRORS`, each against the
        #: next round-robin coordinator (the DataStax driver's default
        #: RetryPolicy next-host behaviour).
        self.retries = retries
        self._rr_index = 0
        #: Node id -> datacenter name on a geo cluster (fixed per
        #: cluster); ``None`` on a single rack, where every ring member
        #: is a candidate coordinator.
        self._datacenters = self.cluster.node_datacenter

    def _coordinator_pool(self) -> list[Node]:
        """Candidate coordinators on a geo cluster."""
        members = self.cassandra.coordinator_nodes
        datacenters = self._datacenters
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
        members = (self.cassandra.coordinator_nodes
                   if self._datacenters is None else self._coordinator_pool())
        for _ in range(len(members)):
            node = members[self._rr_index % len(members)]
            self._rr_index += 1
            if node.alive:
                return node
        raise DeadNodeError("no live Cassandra coordinator")

    def _call(self, handler: str, payload: tuple, request_bytes: int,
              response_bytes: int, deadline: Optional[float],
              stamped: bool = False) -> Generator:
        """One coordinator RPC, retried per the session's retry policy.

        A ``stamped`` payload is a write's ``(key, value, size, cl,
        deadline)``: each attempt sends it with the time it is sent as
        the write timestamp (after ``size``), so a retry is newer.
        """
        env = self.cluster.env
        for attempt in range(self.retries + 1):
            coordinator = self._next_coordinator()
            try:
                result = yield self.cluster.call_async(
                    self.client_node, coordinator, handler,
                    (*payload[:3], env._now, *payload[3:]) if stamped
                    else payload,
                    request_bytes=request_bytes,
                    response_bytes=response_bytes,
                    timeout=self.op_timeout_s, deadline=deadline,
                    src_cpu_s=CLIENT_OVERHEAD_S if attempt == 0 else 0.0)
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

    def write(self, key: str, value: Any, size: int,
              cl: Optional[ConsistencyLevel] = None) -> Generator:
        """Write one row at the session's (or given) write CL.

        Like :meth:`read` and :meth:`scan`, returns :meth:`_call`'s
        generator (callers ``yield from`` it).  The level goes on the
        wire by name; ``cl._value_`` because ``cl.value`` is two
        property frames."""
        cl = cl or self.write_cl
        deadline = (None if self.deadline_s is None
                    else self.cluster.env._now + self.deadline_s)
        return self._call(
            "c.coord_write", (key, value, size, cl._value_, deadline),
            request_bytes=size + 80, response_bytes=20, deadline=deadline,
            stamped=True)

    def read(self, key: str, expected_bytes: int = 1024,
             cl: Optional[ConsistencyLevel] = None) -> Generator:
        """Read one row; returns ``(value, timestamp)`` or None."""
        cl = cl or self.read_cl
        deadline = (None if self.deadline_s is None
                    else self.cluster.env._now + self.deadline_s)
        return self._call(
            "c.coord_read", (key, cl._value_, expected_bytes, deadline),
            request_bytes=70, response_bytes=expected_bytes + 30,
            deadline=deadline)

    def scan(self, start_key: str, limit: int, record_bytes: int = 1024,
             cl: Optional[ConsistencyLevel] = None) -> Generator:
        """Token-order scan from ``start_key``."""
        cl = cl or self.read_cl
        deadline = (None if self.deadline_s is None
                    else self.cluster.env._now + self.deadline_s)
        return self._call(
            "c.coord_scan",
            (start_key, limit, cl._value_, record_bytes, deadline),
            request_bytes=80, response_bytes=record_bytes * limit,
            deadline=deadline)
