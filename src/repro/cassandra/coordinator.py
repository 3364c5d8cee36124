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

``blocking_read_repair=False`` (ablation) still waits for the CL-set
reconcile's full-data reads; only its repair mutations' acks leave the
latency path.

A verb plans inside the handler call and returns an :class:`Event` that
callbacks on the replica calls complete: a request is no process, except
where a generator is still needed — the hedged race, a reconcile,
EACH_QUORUM's per-datacenter waits and the storage engine's scan.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.cassandra.consistency import ConsistencyLevel, UnavailableError
from repro.cassandra.hints import Hint
from repro.cassandra.read_repair import background_reconcile
from repro.cluster.hedging import HedgePolicy
from repro.cluster.topology import DeadlineExceeded, TailDefenseConfig
from repro.keyspace import token_of
from repro.sim.kernel import (AllOf, Environment, Event, ModelledFailure,
                              Process, _finish, _settled)
from repro.sim.resources import Overloaded

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cassandra.node import CassandraNode

__all__ = ["Coordinator", "REPLICA_TIMEOUT_S", "ReadTimeoutError",
           "WriteTimeoutError", "wait_for_k"]

#: CPU charged on the coordinator per request it coordinates.  It rides
#: the request leg's core reservation (``Node.register(cpu_s=...)``).
_COORD_CPU_S = 1.2e-5

#: How long a coordinator waits for one replica's answer (seconds).
#: Defined here rather than beside the deployment's other knobs because
#: the deployment imports this module.
REPLICA_TIMEOUT_S = 2.0

#: Hot-path lookup tables (one enum construction / f-string per request
#: is measurable at stress-cell scale).  The per-CL stats keys are looked
#: up by the level's name, as the payload carries it: hashing a member is
#: a Python frame (``Enum.__hash__``).
_CL_BY_VALUE = {cl.value: cl for cl in ConsistencyLevel}
_WRITES_KEY = {cl.value: f"writes_{cl.value}" for cl in ConsistencyLevel}
_READS_KEY = {cl.value: f"reads_{cl.value}" for cl in ConsistencyLevel}


class WriteTimeoutError(ModelledFailure):
    """Not enough replica acks arrived before the write timeout."""


class ReadTimeoutError(ModelledFailure):
    """Not enough replica responses arrived before the read timeout."""


def _then(event: Event, callback: Callable[[Event], None]) -> None:
    """Run ``callback(event)`` once ``event`` has happened, as a
    ``yield`` would resume: now if it has, else as its next subscriber."""
    if event.callbacks is None:
        callback(event)
    else:
        event.callbacks.append(callback)


def wait_for_k(env: Environment, events: list[Event], k: int,
               failure: Exception) -> Event:
    """The event that completes once ``k`` of ``events`` have succeeded.

    Any events will do — replica operations are :class:`AsyncCall`s,
    bare storage-engine events when the replica is this node, processes
    in tests; only the :class:`Event` surface is used.  One "fails" when
    it completed with an Exception *value* (the RPC transport converts
    timeouts and sheds into values) or when it *failed* (e.g. a replica
    handler crashing mid-request).  Failures are defused here: once
    ``done`` triggers early, the losers must not crash the whole
    simulation through :meth:`~repro.sim.kernel.Environment.run`'s
    unhandled-failure check.  If completion of all events cannot reach
    ``k`` successes, the event fails with ``failure``.
    """
    if k <= 0:
        return _settled(env)
    n = len(events)
    if k > n:
        raise failure
    done = env.event()
    state = [0, 0]  # successes, finished

    def check(event: Event) -> None:
        state[1] += 1
        if not event._ok:
            event._defused = True
        elif not isinstance(event._value, Exception):
            state[0] += 1
        if done.callbacks is None:
            return
        if state[0] >= k:
            _finish(done, True, None)
        elif state[1] == n:
            done._defused = True  # the waiter's to take, even a late one
            _finish(done, False, failure)

    for event in events:
        if event.callbacks is None:
            check(event)
        else:
            event.callbacks.append(check)
    return done


class Coordinator:
    """Coordination logic bound to one :class:`CassandraNode`."""

    def __init__(self, owner: "CassandraNode", tail: TailDefenseConfig,
                 rng) -> None:
        self.owner = owner
        self.env: Environment = owner.node.env
        self._rng = rng
        self.stats = {"writes": 0, "reads": 0, "scans": 0,
                      "read_repairs": 0, "repair_mutations": 0,
                      "hints_stored": 0, "background_repairs": 0,
                      "hedged_reads": 0, "hedge_wins": 0,
                      "admission_sheds": 0}
        #: Admission control: max coordinated ops in flight on this node.
        self.max_inflight = tail.max_inflight
        self.inflight = 0
        #: Rapid read protection (speculative_retry); ``None`` = off.
        self.hedge = HedgePolicy(tail.hedge) if tail.hedge else None
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
            owner.placement.replication_per_dc
            or tail.max_handler_queue is not None)
        #: Node id -> datacenter name on a geo cluster, fixed per
        #: cluster; ``None`` on a single rack, where every level is
        #: planned without the datacenter machinery (:meth:`_plan`).
        self._datacenters = owner.cluster.node_datacenter
        node = owner.node
        node.register("c.coord_write", self.handle_write, cpu_s=_COORD_CPU_S)
        node.register("c.coord_read", self.handle_read, cpu_s=_COORD_CPU_S)
        node.register("c.coord_scan", self.handle_scan, cpu_s=_COORD_CPU_S)

    # -- plumbing --------------------------------------------------------

    def _coordinate(self, plan: Callable, payload: tuple) -> Event:
        """Admit a request; ``plan(payload, done)`` fans it out and hangs
        the callbacks that complete ``done`` on the replica calls.  What
        ends it before this returns (a refusal, a shed on this node's own
        stage) raises, as a process failing in its first segment did."""
        if self.max_inflight is not None \
                and self.inflight >= self.max_inflight:
            # Coordinator-side admission control: shed before any work.
            self.stats["admission_sheds"] += 1
            raise Overloaded(
                f"coordinator {self.owner.node.node_id} at max in-flight "
                f"({self.max_inflight})")
        self.inflight += 1
        done = Event(self.env)
        try:
            plan(payload, done)
        except BaseException:
            if done.callbacks is not None:
                self.inflight -= 1
            raise
        if not done._ok:
            raise done._value
        return done

    def _complete(self, done: Event, ok: bool, value) -> None:
        """End a request: out of flight (where ``finally`` ran), then its
        waiters hear, inline — unless it is still in the verb call."""
        self.inflight -= 1
        if not done.callbacks:
            done._defused = True  # :meth:`_coordinate` raises it
        _finish(done, ok, value)

    def _resume(self, done: Event, step: Optional[Callable] = None):
        """A callback going on with ``done`` after a wait: ``step(value)``,
        else answer with the value; a failed event fails ``done``."""
        def resume(event: Event) -> None:
            if not event._ok:
                event._defused = True
                self._complete(done, False, event._value)
            elif step is None:
                self._complete(done, True, event._value)
            else:
                step(event._value)
        return resume

    def _replica(self, replica_id: int, verb: str, payload: tuple,
                 request_bytes: int, response_bytes: int,
                 deadline: Optional[float] = None) -> Event:
        """Run ``verb`` on one replica: the handler registered for it on
        this node when the replica is this node (no wire), else over the
        transport; the event's value is an exception when the replica
        failed."""
        owner = self.owner
        node = owner.node
        if replica_id == node.node_id:
            return owner.cluster.call_local(node.handlers[verb], payload)
        return owner.cluster.call_async(
            node, owner.cluster.nodes[replica_id], verb, payload,
            request_bytes=request_bytes, response_bytes=response_bytes,
            timeout=REPLICA_TIMEOUT_S, deadline=deadline)

    def _alive_replicas(self, key: str) -> tuple[list[int], int]:
        """(alive replica ids in placement order, configured replication)."""
        replicas = self.owner.placement.replicas_for_key(key)
        nodes = self.owner.cluster.nodes
        alive = [r for r in replicas if nodes[r].alive]
        return alive, len(replicas)

    def _plan(self, cl: ConsistencyLevel, alive: list[int],
              replication: int) -> tuple[int, list[int], int]:
        """(required acks, read-ordered candidates, ack-pool size) on a
        geo cluster.

        For datacenter-local levels the ack count is a quorum/one of the
        *coordinator's datacenter* replicas — only the first
        ``ack_pool`` candidates (the local ones) may satisfy it — and
        local replicas are preferred as read targets, which is what keeps
        geo-reads off the WAN.  On a single rack the verbs do not call
        this: every level is the plain one, ``cl.required(replication)``
        of the alive replicas in placement order.
        """
        datacenters = self._datacenters
        if not cl.is_datacenter_local:
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
        per_dc = placement.replication_per_dc
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
        for replica_id, ack in zip(ordered, acks):
            on_settle = partial(self._hint_if_failed, replica_id, key, value,
                                size, timestamp)
            if ack.callbacks is None:
                on_settle(ack)
            else:
                ack.callbacks.append(on_settle)

    def _hint_if_failed(self, replica_id: int, key: str, value, size: int,
                        timestamp: float, ack: Event) -> None:
        """One replica's subscriber from :meth:`_arm_failure_hints`."""
        if isinstance(ack._value, Exception):
            self.owner.hints.store(Hint(replica_id, key, value, size,
                                        timestamp))
            self.stats["hints_stored"] += 1

    # -- write path -------------------------------------------------------

    def handle_write(self, payload) -> Event:
        """Coordinate one write: fan out, wait for CL acks."""
        return self._coordinate(self._write, payload)

    def _write(self, payload, done: Event) -> None:
        key, value, size, timestamp, cl_name, *rest = payload
        deadline = rest[0] if rest else None
        cl = _CL_BY_VALUE.get(cl_name) or ConsistencyLevel(cl_name)
        stats = self.stats
        stats["writes"] += 1
        # Per-CL breakdown: under an adaptive policy a single run mixes
        # levels, and the decision-log cross-check sums these.
        key_by_cl = _WRITES_KEY[cl_name]
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
            if self._datacenters is None:
                required, ordered, ack_pool = (cl.required(replication),
                                               alive, len(alive))
            else:
                required, ordered, ack_pool = self._plan(cl, alive,
                                                         replication)
            if len(alive) < required:
                raise UnavailableError(
                    f"write {cl_name} needs {required} replicas, "
                    f"{len(alive)} alive")
        # Mutations go to every live replica; only the ack wait differs.
        # For LOCAL_* levels only acks from the coordinator's datacenter
        # (the first ``ack_pool`` candidates) satisfy the level.
        pending = self.owner.placement.pending
        if pending:
            # A topology change is streaming: double-write to the moved
            # arcs' gainers.  Appended *after* the first ``ack_pool``
            # slots, so they receive every mutation (or a hint on
            # failure) without ever counting toward the level.
            ordered = ordered + [
                r for r in pending.targets_for_token(token_of(key))
                if r not in ordered and self.owner.cluster.node(r).alive]
        mutation = (key, value, size, timestamp, deadline)
        acks = [self._replica(r, "c.mutate", mutation, size + 60, 20, deadline)
                for r in ordered]
        if len(alive) < replication:  # hint every replica that is down
            for replica_id in self.owner.placement.replicas_for_key(key):
                if replica_id not in alive:
                    self.owner.hints.store(Hint(replica_id, key, value, size,
                                                timestamp))
                    self.stats["hints_stored"] += 1
        if self._hint_on_failure:
            self._arm_failure_hints(ordered, acks, key, value, size,
                                    timestamp)
        if groups is not None:
            Process(self.env, self._each_quorum(groups, dict(zip(
                ordered, acks))), None, True, self._resume(done))
            return

        def acked(wait: Event) -> None:
            if wait._ok:
                self._complete(done, True, True)
                return
            wait._defused = True
            # Keep the failure kind honest: when shed replicas alone made
            # the level unreachable, the client sees the shed, not a
            # generic timeout.
            sheds = sum(1 for p in acks[:ack_pool]
                        if p.processed and isinstance(p.value, Overloaded))
            self._complete(done, False, Overloaded(
                f"write {cl_name}: {sheds} replicas shed")
                if sheds > ack_pool - required else wait._value)

        _then(wait_for_k(
            self.env, acks[:ack_pool], required,
            WriteTimeoutError(f"write {cl_name} got < {required} acks")),
            acked)

    def _each_quorum(self, groups: list[tuple[str, int, list[int]]],
                     ack_of: dict[int, Event]) -> Generator:
        """EACH_QUORUM's ack wait, as a process: with every mutation in
        flight, it ends when the *slowest* datacenter has its quorum."""
        for dc, quorum, members in groups:
            yield wait_for_k(
                self.env, [ack_of[r] for r in members], quorum,
                WriteTimeoutError(
                    f"write EACH_QUORUM got < {quorum} acks in "
                    f"datacenter {dc!r}"))
        return True

    # -- read path -----------------------------------------------------

    def handle_read(self, payload) -> Event:
        """Coordinate one read: data + digests, then maybe read repair."""
        return self._coordinate(self._read, payload)

    def _read(self, payload, done: Event) -> None:
        key, cl_name, expected_bytes, *rest = payload
        deadline = rest[0] if rest else None
        cl = _CL_BY_VALUE.get(cl_name) or ConsistencyLevel(cl_name)
        if cl is ConsistencyLevel.EACH_QUORUM:
            # Cassandra rejects EACH_QUORUM reads; mirror that instead of
            # silently degrading.
            raise ValueError("EACH_QUORUM is a write-only consistency level")
        stats = self.stats
        stats["reads"] += 1
        key_by_cl = _READS_KEY[cl_name]
        stats[key_by_cl] = stats.get(key_by_cl, 0) + 1
        config = self.owner.config
        alive, replication = self._alive_replicas(key)
        if self._datacenters is None:
            required, ordered = cl.required(replication), alive
        else:
            required, ordered, _ack_pool = self._plan(cl, alive, replication)
        if len(alive) < required:
            raise UnavailableError(
                f"read {cl_name} needs {required} replicas, "
                f"{len(alive)} alive")
        repair_fires = (len(ordered) > required
                        and self._rng.random() < config.read_repair_chance)
        involved = ordered if repair_fires else ordered[:required]

        read = (key, deadline)
        data_proc = self._replica(involved[0], "c.read_data", read, 60,
                                  expected_bytes + 30, deadline)
        digest_procs = [self._replica(r, "c.read_digest", read, 60, 16,
                                      deadline)
                        for r in involved[1:]]

        # Cassandra 2.0 semantics: the response blocks on the consistency
        # level only.  Digests beyond the CL (the chance-triggered global
        # read repair) are compared asynchronously; a mismatch *within*
        # the CL-blocking set forces a foreground reconcile before the
        # client sees an answer.  ``blocking_read_repair=False`` (the
        # ablation) still waits for that reconcile's full-data reads;
        # only its repair mutations' acks leave the latency path.
        blocking_digests = required - 1

        def data_arrived(data: Event) -> None:
            if not data._ok:
                data._defused = True
                self._complete(done, False, data._value)
                return
            if data is data_proc:
                data_resp, data_replica = data._value, involved[0]
            else:  # the hedged race
                data_resp, data_replica = data._value
            if isinstance(data_resp, Exception):
                # Sheds and spent budgets keep their kind; anything else
                # (a replica timeout, a dead replica) is a read timeout.
                if not isinstance(data_resp, (Overloaded, DeadlineExceeded)):
                    data_resp = ReadTimeoutError(
                        f"data read on {data_replica} failed")
                self._complete(done, False, data_resp)
            elif blocking_digests:
                _then(wait_for_k(
                    self.env, digest_procs[:blocking_digests],
                    blocking_digests, ReadTimeoutError(
                        f"read {cl_name} got < {blocking_digests} digests")),
                    self._resume(done, lambda _: answer(data_resp,
                                                        data_replica)))
            elif digest_procs:  # the repair chance fired
                answer(data_resp, data_replica)
            else:
                self._complete(done, True, data_resp)

        def answer(data_resp, data_replica: int) -> None:
            # Only the CL-blocking digests may force a foreground
            # reconcile; the beyond-CL digests exist solely because
            # ``read_repair_chance`` fired and are reconciled off the
            # latency path even when they happen to have completed already
            # (e.g. the coordinator-local fast path) — otherwise the
            # chance-triggered global repair leaks into client latency and
            # overstates the RF-driven read climb.
            data_ts = data_resp[1] if data_resp is not None else None
            digests: list[tuple[int, Optional[float]]] = []
            for replica_id, proc in zip(involved[1:1 + blocking_digests],
                                        digest_procs[:blocking_digests]):
                if proc.processed and not isinstance(proc.value, Exception):
                    digests.append((replica_id, proc.value))
            async_replicas = list(involved[1 + blocking_digests:])
            async_procs = digest_procs[blocking_digests:]
            if async_procs:
                self.env.process(
                    background_reconcile(self, key, expected_bytes,
                                         data_replica, data_resp,
                                         async_replicas, async_procs),
                    name="background-read-repair")
            mismatch = any(d != data_ts for _, d in digests)
            if not mismatch:
                self._complete(done, True, data_resp)
                return
            # Reconcile: full reads from the digest replicas, newest wins.
            stats["read_repairs"] += 1
            Process(self.env, self._reconcile(
                key, expected_bytes, data_replica, data_resp,
                [r for r, _ in digests], blocking=config.blocking_read_repair),
                None, True, self._resume(done))

        if self.hedge is None:
            _then(data_proc, data_arrived)
        else:
            # Replicas not involved in this read are speculative-retry
            # candidates — the "next-fastest" targets a hedge may
            # duplicate the data read to.
            spares = [r for r in ordered if r not in involved]
            Process(self.env, self._await_data(
                data_proc, involved[0], key, expected_bytes, spares,
                deadline), None, True, data_arrived)

    def _await_data(self, proc: Event, replica: int, key: str,
                    expected_bytes: int, spares: list[int],
                    deadline: Optional[float]) -> Generator:
        """Wait for the full data read, hedging to a spare when slow (the
        process a hedge policy costs).

        Models Cassandra 2.0.2's rapid read protection
        (:meth:`HedgePolicy.race`): once the configured delay elapses
        without a primary response, the data read is duplicated to the
        next-fastest alive replica and the first *successful* response
        wins; the loser, this node's own read included, drains.
        Returns ``(response, replica_id)``; the response is an Exception
        value when every attempt failed.
        """
        def read_spare() -> Generator:
            self.stats["hedged_reads"] += 1
            return self._replica(spares[0], "c.read_data", (key, deadline),
                                 60, expected_bytes + 30, deadline)
            yield  # pragma: no cover - a spare launcher is a generator

        response, spare_won = yield from self.hedge.race(
            self.env, proc, read_spare if spares else None)
        if spare_won:
            self.stats["hedge_wins"] += 1
            return response, spares[0]
        return response, replica

    def _reconcile(self, key: str, expected_bytes: int, data_replica: int,
                   data_resp, digest_replicas: list[int],
                   blocking: bool) -> Generator:
        """Full-data reads + repair mutations; returns the newest version."""
        full_procs = [self._replica(r, "c.read_data", (key, None), 60,
                                    expected_bytes + 30)
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
        repair = (key, newest_value, expected_bytes, newest_ts, None)
        repair_acks = [self._replica(r, "c.mutate", repair,
                                     expected_bytes + 60, 20)
                       for r in stale]
        self.stats["repair_mutations"] += len(repair_acks)
        if blocking and repair_acks:
            yield wait_for_k(
                self.env, repair_acks, len(repair_acks),
                ReadTimeoutError("read repair mutations timed out"))
        return (newest_value, newest_ts)

    # -- scan path ----------------------------------------------------

    def handle_scan(self, payload) -> Event:
        """Token-order scan served by the start token's main replica.

        Range scans read contiguous token ranges, so regardless of the
        consistency level the rows come from one replica's local range —
        which is why the paper finds all consistency levels performing
        closely on the scan workload (§4.3).
        """
        return self._coordinate(self._scan, payload)

    def _scan(self, payload, done: Event) -> None:
        start_key, limit, _cl_name, expected_bytes, *rest = payload
        deadline = rest[0] if rest else None
        self.stats["scans"] += 1
        alive, _replication = self._alive_replicas(start_key)
        if not alive:
            raise UnavailableError("no live replica for scan start token")
        rows = self._replica(alive[0], "c.scan", (start_key, limit, deadline),
                             70, expected_bytes * limit, deadline)
        _then(rows, self._resume(done, lambda value: self._complete(
            done, not isinstance(value, Exception), value)))
