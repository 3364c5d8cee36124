"""HTable-style client with a cached region map and failover retries."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.cluster.hedging import HedgePolicy
from repro.cluster.node import Node
from repro.cluster.topology import (Cluster, DEFAULT_CLIENT_OVERHEAD_S,
                                    DeadlineExceeded, DeadNodeError,
                                    RpcTimeout)
from repro.keyspace import KEY_DOMAIN, key_for_token, token_of
from repro.hbase.deployment import HBaseCluster
from repro.hbase.regionserver import NotServingRegion
from repro.sim.resources import Overloaded

__all__ = ["HBaseClient", "backoff_delay"]


def backoff_delay(base_s: float, attempt: int, cap_s: float,
                  rng=None) -> float:
    """Exponential backoff for retry ``attempt`` (1-based), with jitter.

    The uncapped delay doubles per attempt (``base_s * 2**(attempt-1)``),
    is clamped to ``cap_s``, then equal-jittered into
    ``[delay/2, delay)`` when an ``rng`` is supplied — drawn from the sim
    RNG so the schedule is deterministic per seed.  ``rng=None`` gives
    the pure exponential schedule (used by the pinning unit test).
    """
    delay = min(cap_s, base_s * (2 ** (attempt - 1)))
    if rng is not None:
        delay *= 0.5 + rng.random() / 2
    return delay


class HBaseClient:
    """Issues get/put/scan against the owning RegionServer.

    The region map is cached client-side (as the real client caches META)
    and refreshed from the HMaster when an operation times out — which is
    how clients ride out a RegionServer failover.  Retries back off
    exponentially with deterministic jitter; reads can be hedged
    (speculatively duplicated after ``speculative_retry``'s delay) and
    every operation can carry an end-to-end deadline that replica-side
    work honours.
    """

    def __init__(self, hbase: HBaseCluster, client_node: Node,
                 op_timeout_s: float = 5.0, max_retries: int = 4,
                 retry_backoff_s: float = 0.5,
                 backoff_cap_s: float = 5.0,
                 rng=None,
                 speculative_retry: Optional[str] = None,
                 deadline_s: Optional[float] = None,
                 client_overhead_s: float = DEFAULT_CLIENT_OVERHEAD_S) -> None:
        self.hbase = hbase
        self.cluster: Cluster = hbase.cluster
        self.client_node = client_node
        self.op_timeout_s = op_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: Sim RNG stream for backoff jitter (``None`` = no jitter).
        self._rng = rng
        #: Speculative read retry; ``None`` disables hedging.
        self.hedge = (HedgePolicy(speculative_retry)
                      if speculative_retry else None)
        #: End-to-end per-operation budget (covers retries); ``None`` =
        #: no deadline propagation.
        self.deadline_s = deadline_s
        #: Client-side CPU per operation (serialization, bookkeeping),
        #: charged ahead of the first attempt's request serialization —
        #: fused into the RPC's own core reservation so it costs no extra
        #: kernel event (see ``cluster.topology.AsyncCall``).
        self.client_overhead_s = client_overhead_s
        #: region_id -> node_id (META cache).
        self._assignment = dict(hbase.master.assignment)
        self.retries = 0

    def _server_node(self, region_id: int) -> Node:
        return self.cluster.nodes[self._assignment[region_id]]

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
        env = self.cluster.env
        deadline = (env._now + self.deadline_s
                    if self.deadline_s is not None else None)
        if deadline is not None:
            payload = (*payload, deadline)
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.retries += 1
                delay = backoff_delay(self.retry_backoff_s, attempt,
                                      self.backoff_cap_s, self._rng)
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
                result = yield from self._attempt(
                    region_id, verb, payload, request_bytes, response_bytes,
                    deadline,
                    src_cpu_s=self.client_overhead_s if attempt == 0 else 0.0)
                return result
            except DeadlineExceeded:
                # The end-to-end budget covers retries; it is spent.
                raise
            except (RpcTimeout, DeadNodeError, Overloaded,
                    NotServingRegion) as exc:
                last_error = exc
        raise RpcTimeout(f"{verb} on region {region_id} failed after "
                         f"{self.max_retries} retries") from last_error

    def _attempt(self, region_id: int, verb: str, payload: Any,
                 request_bytes: int, response_bytes: int,
                 deadline: Optional[float],
                 src_cpu_s: float = 0.0) -> Generator:
        """One RPC attempt, speculatively duplicated for straggling reads.

        With a hedge policy configured, a read (never a put — only reads
        are latency-critical and side-effect-free here) that has not
        answered after the policy's delay is re-located via the HMaster
        and duplicated (:meth:`HedgePolicy.race`).
        """
        primary = self.cluster.call_async(
            self.client_node, self._server_node(region_id), verb, payload,
            request_bytes, response_bytes, timeout=self.op_timeout_s,
            deadline=deadline, src_cpu_s=src_cpu_s)
        hedge = self.hedge if verb != "rs.put" else None
        if hedge is None:
            result = yield primary
        else:
            def relocate_and_duplicate() -> Generator:
                # The region may have failed over since the primary left.
                yield from self._refresh_assignment()
                return self.cluster.call_async(
                    self.client_node, self._server_node(region_id), verb,
                    payload, request_bytes, response_bytes,
                    timeout=self.op_timeout_s, deadline=deadline)

            result, _ = yield from hedge.race(
                self.cluster.env, primary, relocate_and_duplicate)
        if isinstance(result, Exception):
            raise result
        return result

    # -- operations -----------------------------------------------------

    def put(self, key: str, value: Any, size: int) -> Generator:
        """Insert or update one row."""
        region = self.hbase.region_for_token(token_of(key))
        payload = (region.region_id, key, value, size,
                   self.cluster.env._now)
        result = yield from self._call_region(
            region.region_id, "rs.put", payload,
            request_bytes=size + 60, response_bytes=20)
        return result

    def get(self, key: str, expected_bytes: int = 1024) -> Generator:
        """Read one row; returns ``(value, timestamp)`` or None."""
        region = self.hbase.region_for_token(token_of(key))
        result = yield from self._call_region(
            region.region_id, "rs.get", (region.region_id, key),
            request_bytes=60, response_bytes=expected_bytes)
        return result

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
