"""HTable-style client with a cached region map and failover retries."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.cluster.hedging import HedgePolicy, backoff_delay
from repro.cluster.node import Node
from repro.cluster.topology import (CLIENT_OVERHEAD_S, Cluster,
                                    DeadlineExceeded, RpcTimeout)
from repro.keyspace import KEY_DOMAIN, key_for_token, token_of
from repro.sim.kernel import ModelledFailure

if TYPE_CHECKING:  # pragma: no cover - the deployment builds its clients
    from repro.hbase.deployment import HBaseCluster

__all__ = ["BACKOFF_CAP_S", "HBaseClient", "MAX_RETRIES"]

#: Retries per operation after the first attempt, each against a region
#: map refreshed from the HMaster.
MAX_RETRIES = 4
#: Ceiling of the exponential retry backoff (seconds).
BACKOFF_CAP_S = 5.0


class HBaseClient:
    """Issues reads, writes and scans against the owning RegionServer.

    The region map is cached client-side (as the real client caches META)
    and refreshed from the HMaster when an operation times out — which is
    how clients ride out a RegionServer failover.  Retries back off
    exponentially with deterministic jitter.  The deployment's tail
    defenses reach the client too: reads are hedged (speculatively
    duplicated after ``tail.hedge``'s delay) and every operation carries
    ``tail.deadline_s``, an end-to-end deadline that replica-side work
    honours.  The client is a cell's :class:`~repro.ycsb.db.DbBinding`
    as it stands (a put is an upsert).
    """

    def __init__(self, hbase: HBaseCluster, client_node: Node,
                 op_timeout_s: float = 5.0,
                 retry_backoff_s: float = 0.5,
                 rng=None) -> None:
        self.hbase = hbase
        self.cluster: Cluster = hbase.cluster
        self.client_node = client_node
        self.op_timeout_s = op_timeout_s
        self.retry_backoff_s = retry_backoff_s
        #: Sim RNG stream for backoff jitter (``None`` = no jitter).
        self._rng = rng
        tail = hbase.tail
        #: Speculative read retry; ``None`` disables hedging.
        self.hedge = HedgePolicy(tail.hedge) if tail.hedge else None
        #: End-to-end per-operation budget (covers retries); ``None`` =
        #: no deadline propagation.
        self.deadline_s = tail.deadline_s
        #: region_id -> node_id (META cache).
        self._assignment = dict(hbase.master.assignment)
        self.retries = 0

    def _refresh_assignment(self) -> Generator:
        assignment = yield self.cluster.call_async(
            self.client_node, self.hbase.master_node, "master.locate",
            request_bytes=30, response_bytes=20 * len(self._assignment),
            timeout=self.op_timeout_s)
        if isinstance(assignment, Exception):
            raise assignment
        self._assignment = assignment

    def _call_region(self, region_id: int, verb: str, payload: Any,
                     request_bytes: int, response_bytes: int) -> Generator:
        """One region RPC, retried with backoff against a refreshed
        region map (the operations return this generator).

        With a hedge policy configured, a read (never a put — only reads
        are latency-critical and side-effect-free here) that has not
        answered after the policy's delay is re-located via the HMaster
        and duplicated (:meth:`HedgePolicy.race`).
        """
        env = self.cluster.env
        deadline = (env._now + self.deadline_s
                    if self.deadline_s is not None else None)
        if deadline is not None:
            payload = (*payload, deadline)
        hedge = self.hedge if verb != "rs.put" else None
        last_error: Optional[Exception] = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.retries += 1
                delay = backoff_delay(self.retry_backoff_s, attempt,
                                      BACKOFF_CAP_S, self._rng)
                if deadline is not None:
                    remaining = deadline - env._now
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"{verb} on region {region_id}: budget spent "
                            f"after {attempt - 1} retries") from last_error
                    delay = min(delay, remaining)
                yield env.timeout(delay)
                yield from self._refresh_assignment()
            try:
                call = self.cluster.call_async(
                    self.client_node,
                    self.cluster.nodes[self._assignment[region_id]], verb,
                    payload, request_bytes, response_bytes,
                    timeout=self.op_timeout_s, deadline=deadline,
                    src_cpu_s=CLIENT_OVERHEAD_S if attempt == 0 else 0.0)
                if hedge is None:
                    result = yield call
                else:
                    result, _ = yield from hedge.race(
                        env, call, partial(self._duplicate, region_id, verb,
                                           payload, request_bytes,
                                           response_bytes, deadline))
                if isinstance(result, Exception):
                    raise result
                return result
            except DeadlineExceeded:
                # The end-to-end budget covers retries; it is spent.
                raise
            except ModelledFailure as exc:
                last_error = exc
        raise RpcTimeout(f"{verb} on region {region_id} failed after "
                         f"{MAX_RETRIES} retries") from last_error

    def _duplicate(self, region_id: int, verb: str, payload: Any,
                   request_bytes: int, response_bytes: int,
                   deadline: Optional[float]) -> Generator:
        """A hedged read's spare: the region may have failed over since
        the primary left, so look it up again, then send the same
        request there."""
        yield from self._refresh_assignment()
        return self.cluster.call_async(
            self.client_node, self.cluster.nodes[self._assignment[region_id]],
            verb, payload, request_bytes, response_bytes,
            timeout=self.op_timeout_s, deadline=deadline)

    # -- operations -----------------------------------------------------

    def write(self, key: str, value: Any, size: int) -> Generator:
        """Insert or update one row (the retry loop's own generator)."""
        region = self.hbase.region_of(key)
        payload = (region.region_id, key, value, size,
                   self.cluster.env._now)
        return self._call_region(region.region_id, "rs.put", payload,
                                 request_bytes=size + 60, response_bytes=20)

    def read(self, key: str, expected_bytes: int = 1024) -> Generator:
        """Read one row; returns ``(value, timestamp)`` or None."""
        region = self.hbase.region_of(key)
        return self._call_region(region.region_id, "rs.get",
                                 (region.region_id, key), request_bytes=60,
                                 response_bytes=expected_bytes)

    def scan(self, start_key: str, limit: int,
             record_bytes: int = 1024) -> Generator:
        """Range scan from ``start_key``, possibly spanning regions
        (walked in token order)."""
        rows: list[tuple[str, Any, float]] = []
        cursor_token = token_of(start_key)
        cursor = start_key
        while True:
            region = self.hbase.region_for_token(cursor_token)
            remaining = limit - len(rows)
            batch = yield from self._call_region(
                region.region_id, "rs.scan",
                (region.region_id, cursor, remaining),
                request_bytes=70, response_bytes=record_bytes * remaining)
            rows.extend(batch)
            next_token = region.end_token
            if len(rows) >= limit or next_token >= KEY_DOMAIN:
                break
            cursor_token = next_token
            cursor = key_for_token(next_token)
        return rows[:limit]
