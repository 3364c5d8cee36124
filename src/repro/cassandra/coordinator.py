"""Per-request coordination: consistency waits and read repair.

Any node coordinates requests for any key (clients round-robin).  The
coordinator forwards writes to every replica and waits for as many acks
as the consistency level demands; reads combine one full data read with
digest reads, widening to *all* replicas when the global read-repair
chance fires.

Read-repair semantics (Cassandra 2.0, the version the paper benchmarks):

- the client response blocks on the **consistency level** — one data read
  plus ``required - 1`` digest reads;
- a digest mismatch *within* that CL-blocking set forces a foreground
  reconcile (full reads, newest-timestamp wins, repair mutations) before
  the response — that is the cost QUORUM pays for recent writes;
- when the global ``read_repair_chance`` fires, the remaining replicas
  are read and reconciled **asynchronously**: no latency coupling, but
  the extra digest reads, full reads and repair mutations consume disk,
  CPU and network — the background burden the paper's §4.1 blames for
  Cassandra's read-latency climb with the replication factor.

``blocking_read_repair=False`` (ablation) moves even the CL-set
reconcile off the latency path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.cassandra.consistency import ConsistencyLevel, UnavailableError
from repro.cassandra.hints import Hint
from repro.cluster.hedging import HedgePolicy
from repro.cluster.topology import DeadlineExceeded
from repro.keyspace import token_of
from repro.sim.kernel import AllOf, Environment, Event, ModelledFailure
from repro.sim.resources import Overloaded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.node import CassandraNode

__all__ = ["Coordinator", "ReadTimeoutError", "WriteTimeoutError", "wait_for_k"]

#: CPU charged on the coordinator per request it coordinates.  It rides
#: the request leg's core reservation (``Node.register(cpu_s=...)``).
_COORD_CPU_S = 1.2e-5

#: Hot-path lookup tables (one enum construction / f-string per request
#: is measurable at stress-cell scale).
_CL_BY_VALUE = {cl.value: cl for cl in ConsistencyLevel}
_WRITES_KEY = {cl: f"writes_{cl.value}" for cl in ConsistencyLevel}
_READS_KEY = {cl: f"reads_{cl.value}" for cl in ConsistencyLevel}


class WriteTimeoutError(ModelledFailure):
    """Not enough replica acks arrived before the write timeout."""


class ReadTimeoutError(ModelledFailure):
    """Not enough replica responses arrived before the read timeout."""


def wait_for_k(env: Environment, events: list[Event], k: int,
               failure: Exception) -> Generator:
    """Wait until ``k`` of ``events`` complete successfully (a process).

    Any events will do — replica operations are :class:`AsyncCall`s,
    bare storage-engine events when the replica is this node, processes
    in tests; only the :class:`Event` surface is used.  One "fails" when
    it completed with an Exception *value* (the RPC transport converts
    timeouts and sheds into values) or when it *failed* (e.g. a replica
    handler crashing mid-request).  Failures are defused here: once
    ``done`` triggers early, the losers must not crash the whole
    simulation through :meth:`~repro.sim.kernel.Environment.step`'s
    unhandled-failure check.  If completion of all events cannot reach
    ``k`` successes, ``failure`` is raised.
    """
    if k <= 0:
        return
    n = len(events)
    if k > n:
        raise failure
    done = env.event()
    state = [0, 0]  # successes, finished

    def settle(ok: bool, value) -> None:
        # Inline completion (no queue round-trip): either nobody has
        # subscribed yet (the caller checks the fast path below before
        # yielding) or the subscribers are waiting processes, which the
        # kernel would invoke with exactly this call.
        done._ok = ok
        done._value = value
        callbacks = done.callbacks
        done.callbacks = None
        for callback in callbacks:
            callback(done)

    def check(event: Event) -> None:
        state[1] += 1
        if not event._ok:
            event._defused = True
        elif not isinstance(event._value, Exception):
            state[0] += 1
        if done.callbacks is None:
            return
        if state[0] >= k:
            settle(True, None)
        elif state[1] == n:
            settle(False, failure)

    for event in events:
        if event.callbacks is None:
            check(event)
        else:
            event.callbacks.append(check)
    yield done


class Coordinator:
    """Coordination logic bound to one :class:`CassandraNode`."""

    def __init__(self, owner: "CassandraNode", rng) -> None:
        self.owner = owner
        self._rng = rng
        self.stats = {"writes": 0, "reads": 0, "scans": 0,
                      "read_repairs": 0, "repair_mutations": 0,
                      "hints_stored": 0, "background_repairs": 0,
                      "hedged_reads": 0, "hedge_wins": 0,
                      "admission_sheds": 0}
        spec = owner.spec
        #: Admission control: max coordinated ops in flight on this node.
        self.max_inflight = getattr(spec, "coordinator_max_inflight", None)
        self.inflight = 0
        retry = getattr(spec, "speculative_retry", None)
        #: Rapid read protection (speculative_retry); ``None`` = off.
        self.hedge = HedgePolicy(retry) if retry else None
        #: Geo deployments hint on *failed* remote mutations too: a
        #: replica that dies while the mutation is on the wire loses it
        #: silently, and over a WAN that in-flight window is tens of
        #: milliseconds of acknowledged writes (in-rack it is
        #: microseconds, so the plain single-rack path skips the
        #: bookkeeping).  Bounded replica stages re-open the window
        #: in-rack: a shed mutation (``Overloaded``) is a *common*
        #: failure under overload, not a freak death, and real Cassandra
        #: hints any replica that misses the write timeout — so the
        #: bookkeeping is also on whenever mutations can be shed.
        self._hint_on_failure = bool(
            getattr(owner.placement, "replication_per_dc", None)
            or spec.max_handler_queue is not None)
        node = owner.node
        node.register("c.coord_write", self.handle_write, cpu_s=_COORD_CPU_S)
        node.register("c.coord_read", self.handle_read, cpu_s=_COORD_CPU_S)
        node.register("c.coord_scan", self.handle_scan, cpu_s=_COORD_CPU_S)

    # -- plumbing --------------------------------------------------------

    @property
    def env(self) -> Environment:
        return self.owner.node.env

    def _admit(self) -> None:
        """Coordinator-side admission control (raises before any work)."""
        if self.max_inflight is not None \
                and self.inflight >= self.max_inflight:
            self.stats["admission_sheds"] += 1
            raise Overloaded(
                f"coordinator {self.owner.node.node_id} at max in-flight "
                f"({self.max_inflight})")

    def _replica_mutate(self, replica_id: int, key: str, value, size: int,
                        timestamp: float,
                        deadline: Optional[float] = None) -> Event:
        """Send a mutation to one replica (no wire when it is this node);
        the event's value is an exception when the replica failed."""
        owner = self.owner
        if replica_id == owner.node.node_id:
            return owner.cluster.call_local(
                owner._handle_mutate, (key, value, size, timestamp, deadline))
        return owner.cluster.call_async(
            owner.node, owner.cluster.nodes[replica_id], "c.mutate",
            (key, value, size, timestamp, deadline), request_bytes=size + 60,
            response_bytes=20, timeout=owner.spec.replica_timeout_s,
            deadline=deadline)

    def _replica_read(self, replica_id: int, key: str, expected_bytes: int,
                      digest: bool,
                      deadline: Optional[float] = None) -> Event:
        """Read (or digest-read) one replica; as :meth:`_replica_mutate`.

        With a hedge policy configured every data read is an
        :class:`~repro.cluster.topology.AsyncCall` — this node's own
        included — because :meth:`_await_data` may have to cancel it.
        """
        owner = self.owner
        if replica_id == owner.node.node_id:
            if digest:
                return owner.cluster.call_local(owner._handle_read_digest,
                                                (key, deadline))
            return owner.cluster.call_local(owner._handle_read_data,
                                            (key, deadline),
                                            self.hedge is not None)
        verb = "c.read_digest" if digest else "c.read_data"
        return owner.cluster.call_async(
            owner.node, owner.cluster.nodes[replica_id], verb,
            (key, deadline), request_bytes=60,
            response_bytes=16 if digest else expected_bytes + 30,
            timeout=owner.spec.replica_timeout_s, deadline=deadline)

    def _alive_replicas(self, key: str) -> tuple[list[int], int]:
        """(alive replica ids in placement order, configured replication)."""
        replicas = self.owner.placement.replicas_for_key(key)
        nodes = self.owner.cluster.nodes
        alive = [r for r in replicas if nodes[r].alive]
        return alive, len(replicas)

    def _plan(self, cl: ConsistencyLevel, alive: list[int],
              replication: int) -> tuple[int, list[int], int]:
        """(required acks, read-ordered candidates, ack-pool size).

        For datacenter-local levels the ack count is a quorum/one of the
        *coordinator's datacenter* replicas — only the first
        ``ack_pool`` candidates (the local ones) may satisfy it — and
        local replicas are preferred as read targets, which is what keeps
        geo-reads off the WAN.  On single-DC clusters this degrades to
        the plain levels.
        """
        datacenters = getattr(self.owner.cluster, "node_datacenter", None)
        if not cl.is_datacenter_local or datacenters is None:
            return cl.required(replication), alive, len(alive)
        my_dc = datacenters[self.owner.node.node_id]
        local = [r for r in alive if datacenters.get(r) == my_dc]
        remote = [r for r in alive if datacenters.get(r) != my_dc]
        if not local:
            # No local replicas: fall back to plain semantics.
            return cl.required(replication), alive, len(alive)
        required = cl.required(len(local))
        return required, local + remote, len(local)

    def _each_quorum_groups(
            self, alive: list[int]
    ) -> Optional[list[tuple[str, int, list[int]]]]:
        """Per-datacenter ``(name, quorum, alive members)`` groups.

        ``None`` when the deployment has no per-DC placement —
        single-rack clusters degrade EACH_QUORUM to plain QUORUM
        arithmetic via :meth:`_plan`.  The quorum is computed from the
        *configured* per-DC replication factor, as in Cassandra: a
        datacenter whose live replicas cannot reach its quorum makes the
        whole write unavailable.
        """
        placement = self.owner.placement
        per_dc = getattr(placement, "replication_per_dc", None)
        if not per_dc:
            return None
        node_dc = placement.node_datacenter
        groups = []
        for dc, rf in per_dc.items():
            if rf <= 0:
                continue
            members = [r for r in alive if node_dc.get(r) == dc]
            groups.append((dc, rf // 2 + 1, members))
        return groups

    def _arm_failure_hints(self, ordered: list[int], acks: list[Event],
                           key: str, value, size: int,
                           timestamp: float) -> None:
        """Store a hint for any replica mutation that ultimately fails.

        Covers the WAN in-flight window: a replica alive at fan-out time
        that dies before the mutation lands drops it without a trace,
        and at geo propagation delays that window holds tens of
        acknowledged writes.  The hint is written when the mutation's
        event (``acks``, parallel to ``ordered``) completes with an
        exception value (mid-flight death, timeout, shed), long after
        the client ack — replay after heal then restores convergence.
        Redelivery is safe: mutations are timestamped upserts.

        The coordinator's *own* mutation is covered too: with a bounded
        replica stage, the local apply can be shed while remote acks
        satisfy the level — leaving the coordinator itself the stale
        replica.  A self-targeted hint replays through the same loop
        once the stage has room.
        """
        store = self.owner.hints
        stats = self.stats

        def arm(replica_id: int, ack: Event) -> None:
            def on_settle(event: Event) -> None:
                if isinstance(event._value, Exception):
                    store.store(Hint(replica_id, key, value, size,
                                     timestamp))
                    stats["hints_stored"] += 1
            if ack.callbacks is None:
                on_settle(ack)
            else:
                ack.callbacks.append(on_settle)

        for replica_id, ack in zip(ordered, acks):
            arm(replica_id, ack)

    # -- write path -------------------------------------------------------

    def handle_write(self, payload) -> Generator:
        """Coordinate one write: fan out, wait for CL acks."""
        self._admit()
        self.inflight += 1
        try:
            result = yield from self._write(payload)
            return result
        finally:
            self.inflight -= 1

    def _write(self, payload) -> Generator:
        key, value, size, timestamp, cl_name, *rest = payload
        deadline = rest[0] if rest else None
        cl = _CL_BY_VALUE.get(cl_name) or ConsistencyLevel(cl_name)
        stats = self.stats
        stats["writes"] += 1
        # Per-CL breakdown: under an adaptive policy a single run mixes
        # levels, and the decision-log cross-check sums these.
        key_by_cl = _WRITES_KEY[cl]
        stats[key_by_cl] = stats.get(key_by_cl, 0) + 1
        alive, replication = self._alive_replicas(key)
        groups = (self._each_quorum_groups(alive)
                  if cl is ConsistencyLevel.EACH_QUORUM else None)
        if groups is not None:
            # EACH_QUORUM: every datacenter must be able to reach its
            # own quorum *before* any mutation is sent — an unreachable
            # datacenter is a definitive UnavailableError naming it, not
            # a timeout.
            for dc, quorum, members in groups:
                if len(members) < quorum:
                    raise UnavailableError(
                        f"write EACH_QUORUM needs {quorum} replicas in "
                        f"datacenter {dc!r}, {len(members)} alive")
            required, ordered, ack_pool = 0, alive, len(alive)
        else:
            required, ordered, ack_pool = self._plan(cl, alive, replication)
            if len(alive) < required:
                raise UnavailableError(
                    f"write {cl.value} needs {required} replicas, "
                    f"{len(alive)} alive")
        # Mutations go to every live replica; only the ack wait differs.
        # For LOCAL_* levels only acks from the coordinator's datacenter
        # (the first ``ack_pool`` candidates) satisfy the level.
        pending = getattr(self.owner.placement, "pending", None)
        if pending:
            # A topology change is streaming: double-write to the moved
            # arcs' gainers.  Appended *after* the first ``ack_pool``
            # slots, so they receive every mutation (or a hint on
            # failure) without ever counting toward the level.
            ordered = ordered + [
                r for r in pending.targets_for_token(token_of(key))
                if r not in ordered and self.owner.cluster.node(r).alive]
        acks = [self._replica_mutate(r, key, value, size, timestamp,
                                     deadline=deadline)
                for r in ordered]
        dead = [r for r in self.owner.placement.replicas_for_key(key)
                if r not in alive]
        for replica_id in dead:
            self.owner.hints.store(Hint(replica_id, key, value, size,
                                        timestamp))
            self.stats["hints_stored"] += 1
        if self._hint_on_failure:
            self._arm_failure_hints(ordered, acks, key, value, size,
                                    timestamp)
        if groups is not None:
            # All fan-out procs are already in flight, so waiting on the
            # groups one after another completes when the *slowest*
            # datacenter reaches its quorum — exactly the EACH_QUORUM
            # ack rule.
            proc_of = dict(zip(ordered, acks))
            for dc, quorum, members in groups:
                yield from wait_for_k(
                    self.env, [proc_of[r] for r in members], quorum,
                    WriteTimeoutError(
                        f"write EACH_QUORUM got < {quorum} acks in "
                        f"datacenter {dc!r}"))
            return True
        try:
            yield from wait_for_k(
                self.env, acks[:ack_pool], required,
                WriteTimeoutError(f"write {cl.value} got < {required} acks"))
        except WriteTimeoutError:
            # Keep the failure kind honest: when shed replicas alone made
            # the level unreachable, the client sees the shed, not a
            # generic timeout.
            sheds = sum(1 for p in acks[:ack_pool]
                        if p.processed and isinstance(p.value, Overloaded))
            if sheds > ack_pool - required:
                raise Overloaded(
                    f"write {cl.value}: {sheds} replicas shed") from None
            raise
        return True

    # -- read path -----------------------------------------------------

    def handle_read(self, payload) -> Generator:
        """Coordinate one read: data + digests, then maybe read repair."""
        self._admit()
        self.inflight += 1
        try:
            result = yield from self._read(payload)
            return result
        finally:
            self.inflight -= 1

    def _read(self, payload) -> Generator:
        key, cl_name, expected_bytes, *rest = payload
        deadline = rest[0] if rest else None
        cl = _CL_BY_VALUE.get(cl_name) or ConsistencyLevel(cl_name)
        if cl is ConsistencyLevel.EACH_QUORUM:
            # Cassandra rejects EACH_QUORUM reads; mirror that instead of
            # silently degrading.
            raise ValueError("EACH_QUORUM is a write-only consistency level")
        stats = self.stats
        stats["reads"] += 1
        key_by_cl = _READS_KEY[cl]
        stats[key_by_cl] = stats.get(key_by_cl, 0) + 1
        spec = self.owner.spec
        alive, replication = self._alive_replicas(key)
        required, ordered, _ack_pool = self._plan(cl, alive, replication)
        if len(alive) < required:
            raise UnavailableError(
                f"read {cl.value} needs {required} replicas, "
                f"{len(alive)} alive")
        repair_fires = (len(ordered) > required
                        and self._rng.random() < spec.read_repair_chance)
        involved = ordered if repair_fires else ordered[:required]
        # Replicas not involved in this read are speculative-retry
        # candidates — the "next-fastest" targets a hedge may duplicate
        # the data read to.
        spares = [r for r in ordered if r not in involved]

        data_proc = self._replica_read(involved[0], key, expected_bytes,
                                       digest=False, deadline=deadline)
        digest_procs = [self._replica_read(r, key, expected_bytes,
                                           digest=True, deadline=deadline)
                        for r in involved[1:]]

        # Cassandra 2.0 semantics: the response blocks on the consistency
        # level only.  Digests beyond the CL (the chance-triggered global
        # read repair) are compared asynchronously; a mismatch *within*
        # the CL-blocking set forces a foreground reconcile before the
        # client sees an answer.  ``blocking_read_repair=False`` (the
        # ablation) moves even that reconcile off the latency path.
        blocking_digests = required - 1
        data_resp, data_replica = yield from self._await_data(
            data_proc, involved[0], key, expected_bytes, spares, deadline)
        if isinstance(data_resp, Exception):
            # Sheds and spent budgets keep their kind; anything else
            # (replica timeout, cancelled wait) is a read timeout.
            if isinstance(data_resp, (Overloaded, DeadlineExceeded)):
                raise data_resp
            raise ReadTimeoutError(f"data read on {data_replica} failed")
        if blocking_digests:
            yield from wait_for_k(
                self.env, digest_procs[:blocking_digests], blocking_digests,
                ReadTimeoutError(
                    f"read {cl.value} got < {blocking_digests} digests"))

        # Only the CL-blocking digests may force a foreground reconcile;
        # the beyond-CL digests exist solely because ``read_repair_chance``
        # fired and are reconciled off the latency path even when they
        # happen to have completed already (e.g. the coordinator-local
        # fast path) — otherwise the chance-triggered global repair leaks
        # into client latency and overstates the RF-driven read climb.
        data_ts = data_resp[1] if data_resp is not None else None
        digests: list[tuple[int, Optional[float]]] = []
        for replica_id, proc in zip(involved[1:1 + blocking_digests],
                                    digest_procs[:blocking_digests]):
            if proc.processed and not isinstance(proc.value, Exception):
                digests.append((replica_id, proc.value))
        async_replicas = list(involved[1 + blocking_digests:])
        async_procs = digest_procs[blocking_digests:]
        if async_procs:
            from repro.cassandra.read_repair import background_reconcile
            self.env.process(
                background_reconcile(self, key, expected_bytes, data_replica,
                                     data_resp, async_replicas, async_procs),
                name="background-read-repair")

        mismatch = any(d != data_ts for _, d in digests)
        if not mismatch:
            return data_resp

        # Reconcile: full reads from the digest replicas, newest wins.
        self.stats["read_repairs"] += 1
        result = yield from self._reconcile(
            key, expected_bytes, data_replica, data_resp,
            [r for r, _ in digests], blocking=spec.blocking_read_repair)
        return result

    def _await_data(self, proc: Event, replica: int, key: str,
                    expected_bytes: int, spares: list[int],
                    deadline: Optional[float]) -> Generator:
        """Wait for the full data read, hedging to a spare when slow.

        Models Cassandra 2.0.2's rapid read protection
        (:meth:`HedgePolicy.race`): once the configured delay elapses
        without a primary response, the data read is duplicated to the
        next-fastest alive replica and the first *successful* response
        wins.  Returns ``(response, replica_id)``; the response is an
        Exception value when every attempt failed.

        Cancelling the loser needs ``is_alive`` and ``interrupt`` — a
        wait that can be abandoned — which an
        :class:`~repro.cluster.topology.AsyncCall` has: a remote read's
        caller-side wait, or the process of this node's own read.  That
        is what :meth:`_replica_read` hands out whenever there is a hedge
        policy.
        """
        hedge = self.hedge
        if hedge is None:
            response = yield proc
            return response, replica

        def read_spare() -> Generator:
            self.stats["hedged_reads"] += 1
            return self._replica_read(spares[0], key, expected_bytes,
                                      digest=False, deadline=deadline)
            yield  # pragma: no cover - a spare launcher is a generator

        response, spare_won = yield from hedge.race(
            self.env, proc, read_spare if spares else None)
        if spare_won:
            self.stats["hedge_wins"] += 1
            return response, spares[0]
        return response, replica

    def _reconcile(self, key: str, expected_bytes: int, data_replica: int,
                   data_resp, digest_replicas: list[int],
                   blocking: bool) -> Generator:
        """Full-data reads + repair mutations; returns the newest version."""
        full_procs = [self._replica_read(r, key, expected_bytes, digest=False)
                      for r in digest_replicas]
        if full_procs:
            yield AllOf(self.env, full_procs)
        versions: list[tuple[int, object, Optional[float]]] = [
            (data_replica, *(data_resp if data_resp is not None
                             else (None, None)))]
        for replica_id, proc in zip(digest_replicas, full_procs):
            resp = proc.value
            if isinstance(resp, Exception):
                continue
            versions.append((replica_id, *(resp if resp is not None
                                           else (None, None))))
        newest = max(versions, key=lambda v: (v[2] is not None, v[2] or 0.0))
        _, newest_value, newest_ts = newest
        if newest_ts is None:
            return None
        stale = [v[0] for v in versions if v[2] != newest_ts]
        repair_acks = [
            self._replica_mutate(r, key, newest_value, expected_bytes,
                                 newest_ts)
            for r in stale]
        self.stats["repair_mutations"] += len(repair_acks)
        if blocking and repair_acks:
            yield from wait_for_k(
                self.env, repair_acks, len(repair_acks),
                ReadTimeoutError("read repair mutations timed out"))
        return (newest_value, newest_ts)

    # -- scan path ----------------------------------------------------

    def handle_scan(self, payload) -> Generator:
        """Token-order scan served by the start token's main replica.

        Range scans read contiguous token ranges, so regardless of the
        consistency level the rows come from one replica's local range —
        which is why the paper finds all consistency levels performing
        closely on the scan workload (§4.3).
        """
        self._admit()
        self.inflight += 1
        try:
            result = yield from self._scan(payload)
            return result
        finally:
            self.inflight -= 1

    def _scan(self, payload) -> Generator:
        start_key, limit, _cl_name, expected_bytes, *rest = payload
        deadline = rest[0] if rest else None
        self.stats["scans"] += 1
        alive, _replication = self._alive_replicas(start_key)
        if not alive:
            raise UnavailableError("no live replica for scan start token")
        owner = self.owner
        main = alive[0]
        if main == owner.node.node_id:
            rows = yield from owner._handle_scan((start_key, limit, deadline))
            return rows
        rows = yield owner.cluster.call_async(
            owner.node, owner.cluster.node(main), "c.scan",
            (start_key, limit, deadline), request_bytes=70,
            response_bytes=expected_bytes * limit,
            timeout=owner.spec.replica_timeout_s, deadline=deadline)
        if isinstance(rows, Exception):
            raise rows
        return rows
