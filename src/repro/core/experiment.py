"""Run benchmark cells: build, load, (optionally) reuse, measure.

Two entry points:

- :func:`run_experiment` — one config in, one result out.
- :class:`ExperimentSession` — build + load a deployment once, then run
  several measured cells against it (the paper runs the five stress
  workloads back-to-back on the same loaded cluster per replication
  factor, and the consistency rounds back-to-back at RF 3).

This module imports at module level only what every cell runs: the
kernel, the transport, the YCSB client, the energy meter and the
consistency oracle.  The engine, the geo layout, power
management, the open-loop tier, the fault injector and the scale engine
are imported by the session whose config carries them, at build
(:func:`import_ingredients`); the adaptive controller by the run that
names a policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from math import isfinite
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.cluster.config import SPARE_NODES
from repro.cluster.topology import Cluster, ClusterSpec
from repro.consistency.history import HistoryRecorder
from repro.consistency.oracle import build_consistency_report
from repro.core.config import ExperimentConfig, check_run_pacing
from repro.energy.cost import price
from repro.energy.meter import EnergyMeter
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.ycsb.client import LoadResult, RunResult, YcsbClient
from repro.ycsb.db import DbBinding
from repro.ycsb.measurements import Measurements
from repro.ycsb.workload import STRESS_WORKLOADS, Workload, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only, no engine
    from repro.cassandra.consistency import ConsistencyLevel
    from repro.clienttier.openloop import ClientTier
    from repro.core.failover import StalenessProbe

__all__ = ["LOAD_THREADS", "ExperimentResult", "ExperimentSession",
           "import_ingredients", "run_experiment", "summarize_run"]

#: Client threads inserting the record population.
LOAD_THREADS = 32
#: The longest a post-run hint drain keeps the clock running, seconds.
HINT_DRAIN_S = 30.0


def import_ingredients(config: ExperimentConfig, adaptive: bool) -> None:
    """Import the modules a session of ``config`` arms: the engine
    ``config.db`` names, the geo layout, and the machinery its measured
    runs switch on (open-loop arrivals, faults, elasticity); with
    ``adaptive``, also the controller a run that names a policy arms.

    :class:`ExperimentSession` calls it at build, so that no measured
    run compiles a module; :class:`~repro.core.runner.CellRunner` calls
    it before it forks a pool, so that its workers inherit the modules
    instead of each compiling them.
    """
    import_module(f"repro.{config.db}.deployment")
    if config.geo is not None:
        import repro.cluster.geo  # noqa: F401
    if config.arrivals is not None:
        import repro.clienttier.openloop  # noqa: F401
    if config.faults:
        import repro.cluster.failure  # noqa: F401
    if config.elasticity is not None:
        import repro.cluster.elasticity  # noqa: F401
    if config.faults or config.elasticity is not None:
        # The read-your-writes probe both arm, and the failover report.
        import repro.core.failover  # noqa: F401
    if adaptive:
        import repro.adaptive.controller  # noqa: F401


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
    client: DbBinding
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
        driver — its measurements must not be cache-served, and an open
        breaker must not kill the probe process."""
        if self._probe is None:
            from repro.core.failover import StalenessProbe
            self._probe = StalenessProbe(self.exp.env, self.client)
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
    from repro.clienttier.openloop import build_client_stack
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
    exp, client = run.exp, run.client
    read_cl_of = write_cl_of = None
    if exp.config.db == "cassandra":  # the session carries the CLs
        # ``cl._value_``: ``cl.value`` is two property frames.
        read_cl_of = lambda: client.read_cl._value_  # noqa: E731
        write_cl_of = lambda: client.write_cl._value_  # noqa: E731
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
    elif read_cl_of is not None:
        read_cl, write_cl = client.read_cl, client.write_cl
    yield {"consistency": build_consistency_report(
        recorder.history, exp.deployment, read_cl=read_cl,
        write_cl=write_cl, client_dc=run.dc)}


def _adaptive(run: _Run, switch, binding: DbBinding) -> Generator:
    """``adaptive=<policy name>`` (Cassandra, closed loop): the named
    :mod:`repro.adaptive` policy picks the consistency level per request
    under ``config.adaptive``'s SLO.  Reports ``decisions`` (the
    decision log); the session's own CLs are back in force afterwards."""
    exp, session, cassandra = run.exp, run.client, run.exp.deployment
    if exp.config.db != "cassandra":
        raise ValueError("adaptive consistency control requires Cassandra")
    from repro.adaptive.controller import AdaptiveController
    from repro.adaptive.monitor import Monitor
    from repro.adaptive.policy import EnergyAwarePolicy, make_policy
    slo, env = exp.config.adaptive, exp.env

    def coordinator_signals() -> dict:
        totals = cassandra.total_stats()
        totals["hint_backlog"] = sum(
            len(node.hints) for node in cassandra.nodes.values())
        return totals

    monitor = Monitor(slo, clock=lambda: env.now,
                      signal_source=coordinator_signals)
    policy = make_policy(switch, slo)
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
    from repro.cluster.failure import FailureInjector
    from repro.core.failover import build_failover_report
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
    exp = run.exp
    if exp.config.elasticity is None:
        raise ValueError("scale runs need config.elasticity")
    from repro.cluster.elasticity import ScaleEngine, build_scale_report
    yield binding
    engine = ScaleEngine(exp.env, exp.deployment, exp.config.elasticity,
                         measurements=run.measurements)
    engine.arm(exp.env.now)
    # Scale runs always probe read-your-writes so the report can
    # attribute staleness to the transfer windows.
    probe = run.probe()
    # Session-lifetime logs: snapshot so the report only covers this
    # run's transfers.
    streams, rebalances = exp.deployment.transfer_logs()
    pre_streams, pre_rebalances = len(streams), len(rebalances)
    yield
    probe.stop()
    engine.stop()
    yield
    yield {"scale": build_scale_report(
        run.measurements, engine.log, config=exp.config.elasticity,
        streams=streams[pre_streams:],
        rebalances=len(rebalances) - pre_rebalances, probe=probe)}


def _energy(run: _Run, switch, binding: DbBinding) -> Generator:
    """Always on: meters the cluster's energy over the run and prices
    it (:func:`repro.energy.cost.price`).  Reports ``energy``, ``cost``,
    ``joules_per_op`` and ``usd_per_mops``."""
    exp = run.exp
    yield binding
    # Re-read the topology at stop so elasticity joins/leaves over the
    # window bill correctly.
    meter = EnergyMeter(nodes_source=lambda: exp.cluster.nodes)
    meter.start()
    yield
    energy = meter.stop()
    yield
    cost = price(energy)
    ops = run.measurements.total_ops
    jop, upm = energy.joules_per_op(ops), cost.usd_per_mops(ops)
    # JSON has no inf: an all-errors window stores None (renderers show
    # it as "max", never as free).
    yield {"energy": energy.to_dict(),
           "joules_per_op": jop if isfinite(jop) else None,
           "cost": cost.to_dict(),
           "usd_per_mops": upm if isfinite(upm) else None}


class ExperimentSession:
    """One deployed + loaded database, ready to run measured cells.

    Building a session imports what its config arms
    (:func:`import_ingredients`): the engine ``config.db`` names, the
    geo layout, power management, and the machinery of the open-loop
    tier, the faults and the elasticity plan its measured runs switch
    on.  A run therefore compiles nothing, except the adaptive
    controller of the first run that names a policy.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        import_ingredients(config, adaptive=False)
        self.config = config
        self.env = Environment()
        self.rngs = RngRegistry(config.seed)
        if config.geo is not None:
            from repro.cluster.geo import GeoCluster
            self.cluster = GeoCluster(self.env, config.geo, self.rngs)
        else:
            self.cluster = Cluster(self.env,
                                   ClusterSpec(n_nodes=config.n_nodes),
                                   self.rngs)
        client_ids = self.cluster.client_ids
        if config.energy.power_mode != "always_on":
            from repro.energy.power import PowerManager
            # Power management covers the servers only — the client
            # machine is the workload generator, not part of the system
            # under test.  ``"policy"`` mode starts everything awake and
            # lets an energy-aware adaptive policy park/unpark per
            # window; ``"race_to_sleep"`` parks unconditionally.
            mode = ("race_to_sleep"
                    if config.energy.power_mode == "race_to_sleep"
                    else "always_on")
            for node in self.cluster.nodes:
                if node.node_id in client_ids:
                    continue
                manager = PowerManager(config.energy.power, mode=mode,
                                       now=self.env.now)
                node.power = manager
                node.disk.power = manager
        self._loaded = False
        #: Recorded (``check_consistency``) runs so far — namespaces each
        #: run's write tags so values surviving in the store from an
        #: earlier run can never alias a later run's op ids.
        self._recorded_runs = 0

        #: Trailing servers provisioned outside the serving set, the
        #: elasticity campaign's scale-out pool (0 = classic layout).
        spares = SPARE_NODES if config.elasticity is not None else 0
        #: The engine ``config.db`` names, deployed on the cell's records.
        if config.db == "hbase":
            from repro.hbase.deployment import HBaseCluster
            self.deployment = HBaseCluster(
                self.cluster, config.engine, config.storage, config.tail,
                spare_servers=spares)
        else:
            from repro.cassandra.deployment import CassandraCluster
            self.deployment = CassandraCluster(
                self.cluster, config.engine, config.storage, config.tail,
                spare_nodes=spares)
        # The client tier may shorten a driver's per-operation timeout,
        # so that an overloaded store fails fast enough for client-side
        # defenses (breaker windows, retry budgets) to react.
        timeout = config.clienttier.op_timeout_s
        driver_kwargs = {} if timeout is None else {"op_timeout_s": timeout}
        #: Who can drive a run: ``{datacenter: driver}``, one per client
        #: node — per region on a geo deployment (``run_cell(client_dc=
        #: ...)`` measures from there), else the single key ``None``.
        regions = self.cluster.node_datacenter or {}
        self._clients = {regions.get(i): self.deployment.driver(
            self.cluster.node(i), **driver_kwargs) for i in client_ids}
        #: The default driver (also for scripts that drive it by hand).
        self.client = next(iter(self._clients.values()))

    def _new_workload(self, spec: WorkloadSpec) -> Workload:
        return Workload(spec, self.config.record_count,
                        self.rngs.stream(f"workload.{spec.name}.{self.env.now}"))

    def load(self) -> LoadResult:
        """Insert the record population, once: a second call raises."""
        if self._loaded:
            raise RuntimeError("session already loaded")
        workload = self._new_workload(self.config.workload)
        client = YcsbClient(self.env, self.client, workload)
        process = self.env.process(
            client.load(self.config.record_count, LOAD_THREADS),
            name="load")
        result: LoadResult = self.env.run(until=process)
        self._settle()
        self._loaded = True
        return result

    def _settle(self) -> None:
        """Let flushes/compactions/repairs drain between cells."""
        if self.config.settle_s > 0:
            self.env.run(until=self.env.now + self.config.settle_s)

    def _drain_hints(self) -> None:
        """Run the clock until hinted handoff has fully replayed.

        A write acknowledged during a partition may only become a hint
        when its replica RPC times out (the WAN in-flight window), so
        the drain first waits out one replica timeout plus a replay
        tick, then keeps running while any live coordinator still holds
        hints for a live target.  Hints for still-dead targets do not
        block (a dead replica is invisible to the convergence check
        too); :data:`HINT_DRAIN_S` bounds the wait either way.
        """
        if self.config.db != "cassandra":
            return
        from repro.cassandra.coordinator import REPLICA_TIMEOUT_S
        cassandra, env = self.deployment, self.env
        replay_s = cassandra.config.hint_replay_interval_s
        env.run(until=env.now + REPLICA_TIMEOUT_S + replay_s + 0.1)
        deadline = env.now + HINT_DRAIN_S
        nodes = list(cassandra.nodes.values())
        step = max(0.25, replay_s / 2.0)
        while env.now < deadline and any(
                n.node.alive and n.hints.pending_for(self.cluster)
                for n in nodes):
            env.run(until=env.now + step)

    def warm(self, operations: Optional[int] = None) -> None:
        """Run an unmeasured cache-warming mix (the paper's §6 cold-start
        countermeasure: "run the tests for a long time" before trusting
        latency numbers).  A read-heavy mix, so block caches reach
        steady state before the first measured cell."""
        self.run_cell(workload=STRESS_WORKLOADS["read_mostly"],
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
        return _Run(self, client_dc, self._clients[client_dc],
                    Measurements())

    def _open_driver(self, run: _Run, binding: DbBinding,
                     workload: Workload) -> Generator:
        from repro.clienttier.openloop import OpenLoopClient
        from repro.ycsb.arrivals import UserSessions, make_arrivals
        cfg, now = self.config.arrivals, self.env.now
        arrivals = make_arrivals(cfg, self.rngs.stream(f"arrivals.{now}"))
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
        - ``operation_count``, ``target_throughput``: closed-loop size
          and offered-load cap (defaults from the config; refused on
          ``open_loop`` runs).
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
                                ("adaptive", adaptive)):
                if value is not None:
                    raise ValueError(
                        f"{name} is closed-loop only: an open_loop run is "
                        "sized and paced by config.arrivals")
        check_run_pacing("run_cell", target_throughput)
        run = self._new_run(client_dc)
        if (read_cl or write_cl) and self.config.db != "cassandra":
            raise ValueError("consistency levels only apply to Cassandra")
        if read_cl is not None:
            run.client.read_cl = read_cl
        if write_cl is not None:
            run.client.write_cl = write_cl
        runtime_workload = self._new_workload(workload or self.config.workload)
        # Every observer a run can carry, in wrap order (innermost
        # first), each switched by its keyword.  The recorder wraps
        # *outside* the tier — a cache hit is an observation the oracle
        # must price, not skip — and *inside* the controller, which sets
        # the session CL before delegating.
        instruments, binding = [], run.client
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
            client = YcsbClient(self.env, binding, runtime_workload)
            driver = client.run(run.ops,
                                n_threads=self.config.n_threads,
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
        return {"rpc_count": self.cluster.rpc_count,
                **self.deployment.db_stats()}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Convenience: build, load, warm, run one cell, collect stats.

    The unmeasured read-heavy warm pass brings caches to steady state
    first (the paper's cold-start countermeasure).
    """
    session = ExperimentSession(config)
    load = session.load()
    session.warm()
    run = session.run_cell()
    return ExperimentResult(config=config, load=load, run=run,
                            db_stats=session.db_stats())
