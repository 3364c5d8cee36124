"""Run benchmark cells: build, load, (optionally) reuse, measure.

Two entry points:

- :func:`run_experiment` — one config in, one result out.
- :class:`ExperimentSession` — build + load a deployment once, then run
  several measured cells against it (the paper runs the five stress
  workloads back-to-back on the same loaded cluster per replication
  factor, and the consistency rounds back-to-back at RF 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Generator, Optional

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.monitor import Monitor, SloSpec
from repro.adaptive.policy import EnergyAwarePolicy, make_policy
from repro.cassandra.client import CassandraSession
from repro.cassandra.consistency import ConsistencyLevel
from repro.cassandra.deployment import CassandraCluster, CassandraSpec
from repro.clienttier.openloop import (ClientTier, OpenLoopClient,
                                       build_client_stack)
from repro.cluster.elasticity import ScaleEngine, build_scale_report
from repro.cluster.failure import FailureInjector
from repro.cluster.topology import Cluster, ClusterSpec
from repro.consistency.history import HistoryRecorder
from repro.consistency.oracle import build_consistency_report
from repro.core.config import ExperimentConfig
from repro.core.failover import StalenessProbe, build_failover_report
from repro.energy.meter import EnergyMeter
from repro.energy.power import PowerManager
from repro.hbase.client import HBaseClient
from repro.hbase.deployment import HBaseCluster, HBaseSpec
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.ycsb.arrivals import UserSessions, make_arrivals
from repro.ycsb.client import LoadResult, RunResult, YcsbClient
from repro.ycsb.db import CassandraBinding, DbBinding, HBaseBinding
from repro.ycsb.measurements import Measurements
from repro.ycsb.workload import STRESS_WORKLOADS, Workload, WorkloadSpec

__all__ = ["ExperimentResult", "ExperimentSession", "run_experiment",
           "summarize_run"]


def summarize_run(result: "RunResult") -> dict:
    """JSON-safe summary of one measured cell run.

    This is the unit the sweep layer (and the parallel runner's on-disk
    cell cache) traffics in: plain floats/ints only, so a summary
    round-trips through ``json`` without loss and a cached cell is
    indistinguishable from a freshly computed one.
    """
    overall = result.overall()
    summary = {
        "workload": result.workload,
        "target": result.target_throughput,
        "mean_ms": overall.mean_ms,
        "p50_ms": overall.p50 * 1000.0,
        "p95_ms": overall.p95 * 1000.0,
        "p99_ms": overall.p99_ms,
        "p999_ms": overall.p999_ms,
        "throughput": result.throughput,
        "ops": overall.count,
        "errors": overall.errors,
        "errors_by_type": dict(
            sorted(result.measurements.errors_by_type.items())),
    }
    if result.offered is not None:
        # Open-loop runs: offered load is an input, goodput an output.
        # "throughput" above equals goodput; the explicit pair makes the
        # collapse (offered >> goodput) readable at a glance.
        summary["offered"] = result.offered
        summary["offered_per_s"] = result.measurements.offered_throughput
        summary["goodput"] = result.throughput
    summary.update(result.reports)
    return summary


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one cell produced."""

    config: ExperimentConfig
    load: LoadResult
    run: RunResult
    #: Engine-internal counters (read repairs, cache hit rates, ...).
    db_stats: dict


# -- the instruments of a measured run ------------------------------------
#
# An instrument is everything one observer of a run does, as a generator
# of four segments that :meth:`ExperimentSession.run_cell` advances in
# lockstep: **wrap** the binding stack (yielding the wrapped binding),
# **arm** at the run's start, **stop** when the driver has finished, and
# **report** — yield JSON-safe summary entries, built on the settled
# cluster.  ``switch`` is the value of the keyword that turned it on.

@dataclass
class _Run:
    """One run as its instruments see it."""

    exp: "ExperimentSession"
    #: The driving client: its key and entry in the session's client map.
    dc: Optional[str]
    node: object
    session: Optional[CassandraSession]
    binding: DbBinding
    #: The live sample store, handed to the driver and to whoever polls
    #: it mid-run (the autoscaler reads per-window p95 from it).
    measurements: Measurements
    #: Operations the driver will issue and its target rate, ops/s.
    ops: int = 0
    target: Optional[float] = None
    #: An open-loop run's client tier, for its driver.
    tier: Optional[ClientTier] = None
    #: ``() -> (read CL, write CL)`` the oracle classifies the guarantee
    #: by, when not the session's own.
    classify_by: Optional[Callable[[], tuple]] = None
    _probe: Optional[StalenessProbe] = None

    def probe(self) -> StalenessProbe:
        """The run's read-your-writes probe, started on first request
        (the fault and scale reports both read it).  It uses the raw
        binding — its measurements must not be cache-served, and an open
        breaker must not kill the probe process."""
        if self._probe is None:
            self._probe = StalenessProbe(self.exp.env, self.binding)
            self.exp.env.process(self._probe.run(), name="staleness-probe")
        return self._probe


def _client_tier(run: _Run, switch, binding: DbBinding) -> Generator:
    """``open_loop``: ``config.arrivals`` drives the run through the
    resilient client tier (:mod:`repro.clienttier`) built from
    ``config.clienttier`` — arrivals dispatch at their scheduled times
    regardless of in-flight work, latency is measured from intended
    arrival, and the result carries the ``offered`` count.  Reports
    ``clienttier`` (the tier's accounting)."""
    exp = run.exp
    if exp.config.arrivals is None:
        raise ValueError("open_loop runs need config.arrivals")
    run.tier = build_client_stack(binding, exp.env, exp.rngs,
                                  exp.config.clienttier)
    yield run.tier.binding
    yield
    yield
    yield {"clienttier": run.tier.stats()}


def _oracle(run: _Run, switch, binding: DbBinding) -> Generator:
    """``check_consistency``: every database operation is recorded into
    a Jepsen-style history (writes tagged with unique values).  Reports
    ``consistency``, built after the post-run settle so the convergence
    check sees a quiescent cluster."""
    exp, session = run.exp, run.session
    read_cl_of = write_cl_of = None
    if session is not None:
        read_cl_of = lambda: session.read_cl.value  # noqa: E731
        write_cl_of = lambda: session.write_cl.value  # noqa: E731
    exp._recorded_runs += 1
    recorder = HistoryRecorder(binding, exp.env, read_cl=read_cl_of,
                               write_cl=write_cl_of,
                               tag_prefix=f"h{exp._recorded_runs}.")
    yield recorder
    yield
    yield
    read_cl = write_cl = None
    if run.classify_by is not None:
        read_cl, write_cl = run.classify_by()
    elif session is not None:
        read_cl, write_cl = session.read_cl, session.write_cl
    yield {"consistency": build_consistency_report(
        recorder.history, db=exp.config.db, read_cl=read_cl,
        write_cl=write_cl, replication=exp.config.replication,
        cassandra=exp.cassandra, client_dc=run.dc)}


def _adaptive(run: _Run, switch, binding: DbBinding) -> Generator:
    """``adaptive=<policy name>`` (Cassandra, closed loop): the named
    :mod:`repro.adaptive` policy picks the consistency level per request
    under ``config.adaptive``'s SLO.  Reports ``decisions`` (the
    decision log); the session's own CLs are back in force afterwards."""
    exp, session, cassandra = run.exp, run.session, run.exp.cassandra
    if session is None or cassandra is None:
        raise ValueError("adaptive consistency control requires Cassandra")
    ac, env = exp.config.adaptive, exp.env
    slo = SloSpec(p95_ms=ac.p95_ms, staleness_s=ac.staleness_s,
                  risk_rate=ac.risk_rate, window_s=ac.window_s)

    def coordinator_signals() -> dict:
        totals = cassandra.total_stats()
        totals["hint_backlog"] = sum(
            len(node.hints) for node in cassandra.nodes.values())
        return totals

    monitor = Monitor(slo, clock=lambda: env.now,
                      signal_source=coordinator_signals)
    policy = make_policy(switch, slo, decay_windows=ac.decay_windows)
    if isinstance(policy, EnergyAwarePolicy):
        managed = [n for n in exp.cluster.nodes if n.power is not None]

        def set_parked(parked: bool) -> None:
            mode = "race_to_sleep" if parked else "always_on"
            for node in managed:
                node.power.set_mode(mode, env.now)

        policy.bind_actuator(set_parked)
    # The oracle classifies the guarantee by the weakest CLs the policy
    # may issue, not whatever the final request happened to use.
    run.classify_by = policy.floor_cls
    session_cls = (session.read_cl, session.write_cl)
    # Outermost wrapper: the controller sets the session CL *before*
    # delegating, so the history recorder (inside) records the CL each
    # operation actually ran at.
    controller = AdaptiveController(binding, session, policy, monitor)
    yield controller
    yield
    yield
    decisions = controller.summary()
    read_stats = run.measurements.stats("read")
    decisions["read_p95_ms"] = read_stats.p95 * 1000.0
    decisions["read_p99_ms"] = read_stats.p99_ms
    # Only now: a probe read still in flight when the driver finished
    # ran during the settle, at the controller's last CL.
    session.read_cl, session.write_cl = session_cls
    yield {"decisions": decisions}


def _faults(run: _Run, switch, binding: DbBinding) -> Generator:
    """``inject_faults`` (and a non-empty ``config.faults``): the fault
    specs are armed relative to the run's start and a read-your-writes
    probe runs alongside the workload.  Reports ``failover``."""
    yield binding
    started = run.exp.env.now
    injector = FailureInjector(run.exp.cluster)
    injector.inject(switch, base_s=started)
    probe = run.probe()
    yield
    probe.stop()
    yield
    # Built after settling so restarts/heals landing just past the
    # run's end still make it into the report.
    expected_end = started + run.ops / run.target if run.target else None
    yield {"failover": build_failover_report(
        run.measurements, injector.log, target_throughput=run.target,
        expected_end=expected_end, probe=probe)}


def _scale(run: _Run, switch, binding: DbBinding) -> Generator:
    """``scale``: ``config.elasticity`` is armed relative to the run's
    start — a :class:`~repro.cluster.elasticity.ScaleEngine` adds and
    removes nodes mid-run (manual schedule or p95-driven autoscaler) —
    and a read-your-writes probe runs alongside the workload.  Reports
    ``scale``: per-phase (before/during/after transfer) latency and
    staleness."""
    exp, hbase, cassandra = run.exp, run.exp.hbase, run.exp.cassandra
    if exp.config.elasticity is None:
        raise ValueError("scale runs need config.elasticity")
    yield binding
    engine = ScaleEngine(exp.env, hbase if hbase is not None else cassandra,
                         exp.config.elasticity,
                         measurements=run.measurements)
    engine.arm(exp.env.now)
    # Scale runs always probe read-your-writes so the report can
    # attribute staleness to the transfer windows.
    probe = run.probe()
    # Session-lifetime counters: snapshot so the report only covers
    # this run's transfers.
    pre_streams = pre_rebalances = 0
    if cassandra is not None:
        pre_streams = len(cassandra.streams)
    if hbase is not None:
        pre_rebalances = len(hbase.master.rebalances)
    yield
    probe.stop()
    engine.stop()
    yield
    yield {"scale": build_scale_report(
        run.measurements, engine.log, config=exp.config.elasticity,
        streams=(cassandra.streams[pre_streams:]
                 if cassandra is not None else ()),
        rebalances=(len(hbase.master.rebalances) - pre_rebalances
                    if hbase is not None else 0),
        probe=probe)}


def _energy(run: _Run, switch, binding: DbBinding) -> Generator:
    """Always on: meters the cluster's energy over the run and prices
    it with the cell's ``CostSpec``.  Reports ``energy``, ``cost``,
    ``joules_per_op`` and ``usd_per_mops``."""
    exp = run.exp
    yield binding
    # Re-read the topology at stop so elasticity joins/leaves over the
    # window bill correctly.
    meter = EnergyMeter(spec=exp.config.energy.power,
                        nodes_source=lambda: exp.cluster.nodes)
    meter.start()
    yield
    energy = meter.stop()
    yield
    cost = exp.config.energy.cost.price(energy)
    ops = run.measurements.total_ops
    jop, upm = energy.joules_per_op(ops), cost.usd_per_mops(ops)
    # JSON has no inf: an all-errors window stores None (renderers show
    # it as "max", never as free).
    yield {"energy": energy.to_dict(),
           "joules_per_op": jop if isfinite(jop) else None,
           "cost": cost.to_dict(),
           "usd_per_mops": upm if isfinite(upm) else None}


class ExperimentSession:
    """One deployed + loaded database, ready to run measured cells."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.env = Environment()
        self.rngs = RngRegistry(config.seed)
        geo = config.geo
        if geo is not None:
            from repro.cluster.geo import GeoCluster, GeoSpec
            region_latency = {frozenset({a, b}): s
                              for a, b, s in geo.region_rtt_s}
            self.cluster = GeoCluster(self.env, GeoSpec(
                datacenters=dict(geo.datacenters),
                client_datacenters=tuple(geo.client_datacenters),
                region_latency_s=region_latency,
                wan_bandwidth_bps=geo.wan_bandwidth_bps), self.rngs)
            client_nodes = {dc: self.cluster.client_in(dc)
                            for dc in geo.client_datacenters}
        else:
            self.cluster = Cluster(self.env,
                                   ClusterSpec(n_nodes=config.n_nodes),
                                   self.rngs)
            client_nodes = {None: self.cluster.node(config.n_nodes - 1)}
        self.client_node = next(iter(client_nodes.values()))
        if config.energy.power_mode != "always_on":
            # Power management covers the servers only — the client
            # machine is the workload generator, not part of the system
            # under test.  ``"policy"`` mode starts everything awake and
            # lets an energy-aware adaptive policy park/unpark per
            # window; ``"race_to_sleep"`` parks unconditionally.
            mode = ("race_to_sleep"
                    if config.energy.power_mode == "race_to_sleep"
                    else "always_on")
            for node in self.cluster.nodes:
                if node in client_nodes.values():
                    continue
                manager = PowerManager(config.energy.power, mode=mode,
                                       now=self.env.now)
                node.power = manager
                node.disk.power = manager
        self._loaded = False
        self.hbase: Optional[HBaseCluster] = None
        self.cassandra: Optional[CassandraCluster] = None
        #: Recorded (``check_consistency``) runs so far — namespaces each
        #: run's write tags so values surviving in the store from an
        #: earlier run can never alias a later run's op ids.
        self._recorded_runs = 0

        tail = config.tail
        #: Trailing servers provisioned outside the serving set, the
        #: elasticity campaign's scale-out pool (0 = classic layout).
        spares = (config.elasticity.spare_nodes
                  if config.elasticity is not None else 0)
        if config.db == "hbase":
            hc = config.hbase
            self.hbase = HBaseCluster(self.cluster, HBaseSpec(
                replication=hc.replication,
                regions_per_server=hc.regions_per_server,
                storage=config.storage,
                wal_sync=hc.wal_sync,
                handler_slots=tail.handler_slots,
                max_handler_queue=tail.max_handler_queue,
                spare_servers=spares,
            ))
        else:
            cc = config.cassandra
            self.cassandra = CassandraCluster(self.cluster, CassandraSpec(
                replication=cc.replication,
                read_repair_chance=cc.read_repair_chance,
                blocking_read_repair=cc.blocking_read_repair,
                hint_replay_interval_s=cc.hint_replay_interval_s,
                storage=config.storage,
                speculative_retry=tail.hedge,
                handler_slots=tail.handler_slots,
                max_handler_queue=tail.max_handler_queue,
                coordinator_max_inflight=tail.max_inflight,
                replication_per_dc=geo and dict(geo.replication_per_dc),
                spare_nodes=spares,
            ))
        #: Who can drive a run: ``{datacenter: (node, Cassandra session
        #: or None, binding)}`` — one client per region on a geo
        #: deployment (``run_cell(client_dc=...)`` measures from that
        #: region's client node, the first being the default), else the
        #: single key ``None``.
        self._clients = {dc: self._new_client(node)
                         for dc, node in client_nodes.items()}
        _, self._session, self.binding = next(iter(self._clients.values()))

    def _new_client(self, node) -> tuple:
        config = self.config
        driver_kwargs: dict = {"deadline_s": config.tail.deadline_s}
        #: Client-tier driver override: a short per-operation timeout
        #: makes an overloaded store fail fast enough for client-side
        #: defenses (breaker windows, retry budgets) to react within a
        #: short surge campaign.
        if config.clienttier.op_timeout_s is not None:
            driver_kwargs["op_timeout_s"] = config.clienttier.op_timeout_s
        if self.hbase is not None:
            return node, None, HBaseBinding(HBaseClient(
                self.hbase, node,
                rng=self.rngs.stream("hbase.client.backoff"),
                speculative_retry=config.tail.hedge, **driver_kwargs))
        session = CassandraSession(
            self.cassandra, node, read_cl=config.cassandra.read_cl,
            write_cl=config.cassandra.write_cl, **driver_kwargs)
        return node, session, CassandraBinding(session)

    @property
    def cassandra_session(self) -> CassandraSession:
        """The driver session of a Cassandra deployment (for examples and
        probes that drive operations outside the YCSB client)."""
        if self._session is None:
            raise ValueError("not a Cassandra deployment")
        return self._session

    def _new_workload(self, spec: WorkloadSpec) -> Workload:
        return Workload(spec, self.config.record_count,
                        self.rngs.stream(f"workload.{spec.name}.{self.env.now}"))

    def load(self) -> LoadResult:
        """Insert the record population, once: a second call raises."""
        if self._loaded:
            raise RuntimeError("session already loaded")
        workload = self._new_workload(self.config.workload)
        client = YcsbClient(self.env, self.binding, workload,
                            self.rngs.stream("client.load"))
        process = self.env.process(
            client.load(self.config.record_count, self.config.load_threads),
            name="load")
        result: LoadResult = self.env.run(until=process)
        self._settle()
        self._loaded = True
        return result

    def _settle(self) -> None:
        """Let flushes/compactions/repairs drain between cells."""
        if self.config.settle_s > 0:
            self.env.run(until=self.env.now + self.config.settle_s)

    def _drain_hints(self, max_wait_s: float = 30.0) -> None:
        """Run the clock until hinted handoff has fully replayed.

        A write acknowledged during a partition may only become a hint
        when its replica RPC times out (the WAN in-flight window), so
        the drain first waits out one replica timeout plus a replay
        tick, then keeps running while any live coordinator still holds
        hints for a live target.  Hints for still-dead targets do not
        block (a dead replica is invisible to the convergence check
        too); ``max_wait_s`` bounds the wait either way.
        """
        cassandra = self.cassandra
        if cassandra is None:
            return
        env = self.env
        spec = cassandra.spec
        env.run(until=env.now + spec.replica_timeout_s
                + spec.hint_replay_interval_s + 0.1)
        deadline = env.now + max_wait_s
        nodes = list(cassandra.nodes.values())
        step = max(0.25, spec.hint_replay_interval_s / 2.0)
        while env.now < deadline and any(
                n.node.alive and n.hints.pending_for(self.cluster)
                for n in nodes):
            env.run(until=env.now + step)

    def warm(self, operations: Optional[int] = None,
             workload: Optional[WorkloadSpec] = None) -> None:
        """Run an unmeasured cache-warming mix (the paper's §6 cold-start
        countermeasure: "run the tests for a long time" before trusting
        latency numbers).  Uses a read-heavy mix by default so block
        caches reach steady state before the first measured cell."""
        self.run_cell(workload=workload or STRESS_WORKLOADS["read_mostly"],
                      operation_count=operations)  # result discarded

    def _new_run(self, client_dc: Optional[str]) -> _Run:
        """A run driven by ``client_dc``'s client (default: the first)."""
        if not self._loaded:
            raise RuntimeError("call load() before run_cell()")
        if self.config.geo is None and client_dc is not None:
            raise ValueError("client_dc requires a geo deployment")
        if client_dc is None:
            client_dc = next(iter(self._clients))
        if client_dc not in self._clients:
            raise ValueError(
                f"no client in datacenter {client_dc!r}; configured: "
                f"{list(self._clients)}")
        return _Run(self, client_dc, *self._clients[client_dc],
                    Measurements())

    def _open_driver(self, run: _Run, binding: DbBinding,
                     workload: Workload) -> Generator:
        cfg, now = self.config.arrivals, self.env.now
        arrivals = make_arrivals(
            cfg.process, cfg.rate, self.rngs.stream(f"arrivals.{now}"),
            period_s=cfg.period_s, peak_factor=cfg.peak_factor,
            spike_at_s=cfg.spike_at_s, spike_factor=cfg.spike_factor,
            spike_duration_s=cfg.spike_duration_s)
        sessions = UserSessions(cfg.n_users,
                                self.rngs.stream(f"sessions.{now}"),
                                n_tenants=cfg.n_tenants)
        run.ops, run.target = cfg.max_arrivals, cfg.rate
        client = OpenLoopClient(self.env, binding, workload, arrivals,
                                sessions=sessions, tier=run.tier)
        return client.run(run.ops, offered_rate=run.target,
                          measurements=run.measurements)

    def run_cell(self, workload: Optional[WorkloadSpec] = None,
                 operation_count: Optional[int] = None,
                 target_throughput: Optional[float] = None,
                 n_threads: Optional[int] = None,
                 read_cl: Optional[ConsistencyLevel] = None,
                 write_cl: Optional[ConsistencyLevel] = None,
                 inject_faults: bool = False,
                 check_consistency: bool = False,
                 adaptive: Optional[str] = None,
                 client_dc: Optional[str] = None,
                 open_loop: bool = False,
                 scale: bool = False) -> RunResult:
        """Run one measured workload cell on the loaded deployment.

        - ``workload``: the mix to run (default ``config.workload``).
        - ``operation_count``, ``target_throughput``, ``n_threads``:
          closed-loop size, offered-load cap and client threads
          (defaults from the config; refused on ``open_loop`` runs).
        - ``read_cl``, ``write_cl``: set the session's consistency
          levels from this run on (Cassandra only).
        - ``client_dc``: on a geo deployment, the region whose client
          node drives and measures the run (default: the first).
        - ``open_loop``: see :func:`_client_tier`.
        - ``check_consistency``: see :func:`_oracle`.
        - ``adaptive``: see :func:`_adaptive`.
        - ``inject_faults``: see :func:`_faults`.
        - ``scale``: see :func:`_scale`.
        - (always on) energy and cost: see :func:`_energy`.
        """
        faults = inject_faults and self.config.faults
        if open_loop:
            for name, value in (("operation_count", operation_count),
                                ("target_throughput", target_throughput),
                                ("n_threads", n_threads),
                                ("adaptive", adaptive)):
                if value is not None:
                    raise ValueError(
                        f"{name} is closed-loop only: an open_loop run is "
                        "sized and paced by config.arrivals")
        run = self._new_run(client_dc)
        if (read_cl or write_cl) and run.session is None:
            raise ValueError("consistency levels only apply to Cassandra")
        if read_cl is not None:
            run.session.read_cl = read_cl
        if write_cl is not None:
            run.session.write_cl = write_cl
        runtime_workload = self._new_workload(workload or self.config.workload)
        # Every observer a run can carry, in wrap order (innermost
        # first), each switched by its keyword.  The recorder wraps
        # *outside* the tier — a cache hit is an observation the oracle
        # must price, not skip — and *inside* the controller, which sets
        # the session CL before delegating.
        instruments, binding = [], run.binding
        for instrument, switch in ((_client_tier, open_loop),
                                   (_oracle, check_consistency),
                                   (_adaptive, adaptive),
                                   (_faults, faults),
                                   (_scale, scale),
                                   (_energy, True)):
            if switch:
                instruments.append(instrument(run, switch, binding))
                binding = next(instruments[-1])  # wrap
        if open_loop:
            driver = self._open_driver(run, binding, runtime_workload)
        else:
            run.ops = operation_count or self.config.operation_count
            run.target = (target_throughput if target_throughput is not None
                          else self.config.target_throughput)
            client = YcsbClient(
                self.env, binding, runtime_workload,
                self.rngs.stream(f"client.run.{self.env.now}"))
            driver = client.run(run.ops,
                                n_threads=n_threads or self.config.n_threads,
                                target_throughput=run.target,
                                warmup_fraction=self.config.warmup_fraction,
                                measurements=run.measurements)
        for instrument in instruments:
            next(instrument)  # arm
        process = self.env.process(driver, name="run")
        result: RunResult = self.env.run(until=process)
        for instrument in instruments:
            next(instrument)  # stop
        self._settle()
        if check_consistency and (faults or open_loop or scale):
            # The convergence check needs a quiescent cluster; after a
            # fault campaign that includes waiting out hinted handoff
            # (see :meth:`_drain_hints`).  Open-loop overload manufactures
            # hints the same way a fault does — replica timeouts under
            # pressure — so checked surge runs wait them out too.
            self._drain_hints()
        for instrument in instruments:
            result.reports.update(next(instrument))  # report
        return result

    def db_stats(self) -> dict:
        """Engine-internal counters for reports and tests."""
        stats: dict = {"rpc_count": self.cluster.rpc_count}
        if self.cassandra is not None:
            stats["cassandra"] = self.cassandra.total_stats()
            stats["cache_hit_rate"] = _mean(
                n.tree.cache.hit_rate for n in self.cassandra.nodes.values())
            stats["sstables"] = sum(
                n.tree.n_sstables for n in self.cassandra.nodes.values())
        if self.hbase is not None:
            ops = {"put": 0, "get": 0, "scan": 0}
            for server in self.hbase.regionservers.values():
                for op, count in server.ops.items():
                    ops[op] += count
            stats["hbase"] = ops
            trees = [r.tree for r in self.hbase.regions if r.tree is not None]
            stats["cache_hit_rate"] = _mean(t.cache.hit_rate for t in trees)
            stats["sstables"] = sum(t.n_sstables for t in trees)
            stats["wal_batches"] = sum(
                s.wal.batches for s in self.hbase.regionservers.values())
            stats["wal_appends"] = sum(
                s.wal.appends for s in self.hbase.regionservers.values())
        return stats


def _mean(values) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0


def run_experiment(config: ExperimentConfig,
                   warm: bool = True) -> ExperimentResult:
    """Convenience: build, load, warm, run one cell, collect stats.

    ``warm`` runs an unmeasured read-heavy pass first so caches reach
    steady state (the paper's cold-start countermeasure); disable it to
    measure cold-cache behaviour deliberately.
    """
    session = ExperimentSession(config)
    load = session.load()
    if warm:
        session.warm()
    run = session.run_cell()
    return ExperimentResult(config=config, load=load, run=run,
                            db_stats=session.db_stats())
