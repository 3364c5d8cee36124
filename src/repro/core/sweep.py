"""Campaigns: every experiment of the paper's §4, and every study added
on top of it, declared once and run through one path.

A campaign is one :class:`Campaign` literal in :data:`CAMPAIGNS`: its
name and help line, the ``(full, quick)`` scale pair, the axes a caller
may narrow (with their legal values), the databases it runs on, a cell
builder, how the runs inside a cell extend its key, and the columns of
its table.  Three generic functions consume the table:

- :func:`campaign_cells` validates the axes and turns the requested grid
  into :class:`~repro.core.runner.CellSpec` values — one per independent
  ``ExperimentSession``, carrying its ordered workload sequence (the
  paper runs its workloads "one after another" on one loaded cluster);
- :func:`run_campaign` executes them through a
  :class:`~repro.core.runner.CellRunner` — serially (the default),
  across CPU cores, or out of the on-disk cell cache, all bit-identical
  by construction — and nests the JSON-safe payloads by cell key, so
  benchmarks can assert on shapes and ``--report`` can dump them;
- :func:`render_campaign` prints the nested result as the campaign's
  paper-style table.

The CLI (:mod:`repro.core.cli`) derives every subcommand from the same
table.  Adding a campaign is one entry plus its shape test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from repro.adaptive.policy import ADAPTIVE_POLICIES
from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.elasticity import SCALE_MODES
from repro.cluster.failure import DC_FAULT_KINDS, FAULT_KINDS, FaultSpec
# Imported here (not in repro.consistency's package init) so the sweep
# layer exposes every campaign entrypoint while the consistency package
# stays importable from repro.core.experiment without a cycle.
from repro.consistency.explorer import (CHECK_CL_MODES,
                                        QUICK_CHECK_SCALE,
                                        CheckScale,
                                        check_cells,
                                        check_sweep)
from repro.core import report
from repro.core.config import (MICRO_STORAGE,
                               AdaptiveConfig,
                               ArrivalConfig,
                               CassandraConfig,
                               ClientTierConfig,
                               ElasticityConfig,
                               EnergyConfig,
                               ExperimentConfig,
                               HBaseConfig,
                               ScaleEventSpec,
                               TailDefenseConfig,
                               default_geo_config,
                               default_micro_config,
                               default_scale_config,
                               default_stress_config,
                               default_surge_config,
                               disk_exposed_storage,
                               scaled_stress_storage)
from repro.core.runner import CellRunner, CellSpec, RunSpec, WarmSpec
from repro.storage.lsm import StorageSpec
from repro.ycsb.workload import STRESS_WORKLOADS

__all__ = [
    "ADAPTIVE_POLICIES",
    "AdaptiveScale",
    "Arg",
    "Axis",
    "CAMPAIGNS",
    "CHECK_CL_MODES",
    "CONSISTENCY_MODES",
    "Campaign",
    "CheckScale",
    "ELASTIC_SCENARIOS",
    "ENERGY_CL_MODES",
    "ENERGY_POWER_MODES",
    "ElasticScale",
    "EnergyScale",
    "FAILOVER_CL_MODES",
    "FailoverScale",
    "GEO_CL_MODES",
    "GEO_SCENARIOS",
    "GeoScale",
    "MICRO_OP_ORDER",
    "NODE_FAULT_KINDS",
    "QUICK_ADAPTIVE_SCALE",
    "QUICK_CHECK_SCALE",
    "QUICK_ELASTIC_SCALE",
    "QUICK_ENERGY_SCALE",
    "QUICK_FAILOVER_SCALE",
    "QUICK_GEO_SCALE",
    "QUICK_SCALE",
    "QUICK_SURGE_SCALE",
    "QUICK_TAIL_SCALE",
    "SCALE_MODES",
    "STRESS_WORKLOAD_ORDER",
    "SURGE_MODES",
    "SURGE_SCENARIOS",
    "SurgeScale",
    "SweepScale",
    "TAIL_MODES",
    "TAIL_SCENARIOS",
    "TailScale",
    "campaign_cells",
    "check_cells",
    "check_sweep",
    "elastic_arrivals",
    "elasticity_for_mode",
    "energy_modes",
    "render_campaign",
    "run_campaign",
    "surge_arrivals",
    "surge_tier_for_mode",
    "tail_defense_for_mode",
]

#: §4.1: "the update/read/insert/scan test is run one after another".
MICRO_OP_ORDER = ("update", "read", "insert", "scan")

#: §4.2/§4.3: "the read latest / scan short ranges / read mostly /
#: read-modify-write / read & update test is run one after another".
#: The order matters: the paper explains the scan test's consistency
#: insensitivity by the preceding read-latest test having repaired most
#: inconsistency.
STRESS_WORKLOAD_ORDER = ("read_latest", "scan_short_ranges", "read_mostly",
                         "read_modify_write", "read_update")

#: §4.3's three rounds: (name, read CL, write CL).
CONSISTENCY_MODES: dict[str, tuple[ConsistencyLevel, ConsistencyLevel]] = {
    "ONE": (ConsistencyLevel.ONE, ConsistencyLevel.ONE),
    "QUORUM": (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
    "write ALL": (ConsistencyLevel.ONE, ConsistencyLevel.ALL),
}

#: Fault kinds that target one node id — what the single-rack campaigns
#: (``failover``, ``check``) can inject; the rest need a geo cluster.
NODE_FAULT_KINDS = tuple(kind for kind in FAULT_KINDS
                         if kind not in DC_FAULT_KINDS)


@dataclass(frozen=True)
class SweepScale:
    """Scale-down knobs shared by the sweeps (see DESIGN.md §6)."""

    record_count: int = 30_000
    operation_count: int = 4_000
    n_threads: int = 16
    n_nodes: int = 16
    #: Target throughputs offered in stress sweeps (ops/s); ``None`` means
    #: unthrottled full speed — the point that exposes the true peak.
    targets: tuple = (2_000.0, 6_000.0, 12_000.0, 20_000.0, None)
    seed: int = 42
    #: Override the per-config storage engine tuning (None = the
    #: micro/stress defaults).  Used to shrink memory budgets together
    #: with very small test populations so the disk still participates.
    storage: Optional[StorageSpec] = None


#: Fast settings for tests and --quick benchmark runs.
QUICK_SCALE = SweepScale(record_count=5_000, operation_count=1_200,
                         n_threads=12, n_nodes=8,
                         targets=(2_000.0, 8_000.0, None))


# -- shared ingredients ------------------------------------------------------

def _sized(config: ExperimentConfig, scale, **overrides) -> ExperimentConfig:
    """``config`` at the scale's population, run length, client threads
    and cluster size."""
    return replace(config, **{"record_count": scale.record_count,
                              "operation_count": scale.operation_count,
                              "n_threads": scale.n_threads,
                              "n_nodes": scale.n_nodes, **overrides})


def _node0_fault(kind: str, at_s: float, duration_s: float,
                 **shape) -> FaultSpec:
    # Node 0 is a server in both deployments (the client — and HBase's
    # master — live on the last node), so every node fault targets it.
    return FaultSpec(kind=kind, node_id=0, at_s=at_s, duration_s=duration_s,
                     **shape)


def _cl_values(cls: Optional[tuple]) -> dict:
    """``RunSpec`` CL overrides for one ``(read CL, write CL)`` round."""
    if cls is None:
        return {}
    read_cl, write_cl = cls
    return {"read_cl": read_cl.value, "write_cl": write_cl.value}


def _slo(scale) -> AdaptiveConfig:
    """The SLO an adaptive policy steers by, as the scale declares it."""
    return AdaptiveConfig(p95_ms=scale.p95_ms,
                          staleness_s=scale.staleness_s,
                          risk_rate=scale.risk_rate,
                          window_s=scale.window_s,
                          decay_windows=scale.decay_windows)


#: The shape fields each open-loop arrival process reads off a scale.
_ARRIVAL_SHAPE = {
    "poisson": (),
    "diurnal": ("period_s", "peak_factor"),
    "flash_crowd": ("spike_at_s", "spike_factor", "spike_duration_s"),
}


def _arrivals(process: str, scale) -> ArrivalConfig:
    return ArrivalConfig(
        process=process, rate=scale.base_rate,
        max_arrivals=scale.max_arrivals, n_users=scale.n_users,
        n_tenants=scale.n_tenants,
        **{name: getattr(scale, name) for name in _ARRIVAL_SHAPE[process]})


def _ramp_runs(workloads: Sequence[str], scale: SweepScale,
               **cls) -> tuple:
    """Every workload in order, sweeping the offered target inside each."""
    return tuple(RunSpec(workload=name, target_throughput=target, **cls)
                 for name in workloads for target in scale.targets)


# -- how the runs inside a cell extend its key --------------------------------
# A splitter returns ``[(subkey, leaf), ...]`` for one executed cell; the
# leaf lands in the nested result at ``cell.key + subkey``.

def _one_run(_cell: CellSpec, summaries: list) -> list:
    return [((), summaries[0])]


def _per_run(field: str) -> Callable:
    """One leaf per run, keyed by a :class:`RunSpec` field."""
    return lambda cell, summaries: [
        ((getattr(run, field),), summary)
        for run, summary in zip(cell.runs, summaries)]


#: The projection of a run summary Figure 1 reports per op.
_MICRO_KEYS = ("mean_ms", "p99_ms", "throughput", "ops", "errors",
               "joules_per_op", "usd_per_mops")


def _per_op(cell: CellSpec, summaries: list) -> list:
    return [((run.workload,), {key: summary[key] for key in _MICRO_KEYS})
            for run, summary in zip(cell.runs, summaries)]


def _per_workload(reduce: Callable) -> Callable:
    """One leaf per workload: ``reduce`` over its ``(target, summary)``
    ramp — the paper's §4.2 method."""
    def split(cell: CellSpec, summaries: list) -> list:
        ramps: dict = {}
        for run, summary in zip(cell.runs, summaries):
            ramps.setdefault(run.workload, []).append(
                (run.target_throughput, summary))
        return [((name,), reduce(ramp)) for name, ramp in ramps.items()]
    return split


def _peak_point(ramp: list) -> dict:
    """Figure 2: the peak achieved (runtime) throughput of a ramp, with
    its latency and what that headline point costs in joules/dollars."""
    _, peak = max(ramp, key=lambda point: point[1]["throughput"])
    return {"peak_throughput": peak["throughput"],
            "latency_ms": peak["mean_ms"],
            "per_target": [(target, summary["throughput"],
                            summary["mean_ms"])
                           for target, summary in ramp],
            "joules_per_op": peak["joules_per_op"],
            "usd_per_mops": peak["usd_per_mops"]}


def _ramp_series(ramp: list) -> dict:
    """Figure 3: runtime vs target throughput, plus whole-ramp energy."""
    series = [(target, summary["throughput"]) for target, summary in ramp]
    return {"series": series,
            "peak_throughput": max(runtime for _, runtime in series),
            **report.energy_rollup(report.run_energy(summary)
                                   for _, summary in ramp)}


# -- Figures 1-3: micro and stress benchmarks vs replication / consistency ---

def _micro_cells(db: str, scale: SweepScale,
                 rfs: Sequence[int]) -> list[CellSpec]:
    """One cell per replication factor, each running §4.1's op order."""
    cells = []
    for rf in rfs:
        config = default_micro_config(db, "update", replication=rf,
                                      seed=scale.seed)
        cells.append(CellSpec(
            key=rf,
            label=f"fig1/{db}/rf={rf}",
            config=_sized(config, scale, n_threads=min(scale.n_threads, 8),
                          storage=scale.storage or config.storage),
            runs=tuple(RunSpec(workload=op, kind="micro")
                       for op in MICRO_OP_ORDER),
            warm=WarmSpec(workload="read", kind="micro",
                          operations=scale.operation_count // 2)))
    return cells


def _stress_config(db: str, scale: SweepScale, replication: int,
                   cache_units: float = 3.2) -> ExperimentConfig:
    return _sized(
        default_stress_config(db, "read_mostly", replication=replication,
                              seed=scale.seed),
        scale,
        storage=scale.storage or scaled_stress_storage(
            scale.record_count, 1000, scale.n_nodes - 1,
            cache_units=cache_units))


def _stress_cells(db: str, scale: SweepScale, rfs: Sequence[int],
                  workloads: Sequence[str]) -> list[CellSpec]:
    """One cell per replication factor; each runs every workload in the
    paper's order, sweeping the offered target inside each workload."""
    return [CellSpec(key=rf,
                     label=f"fig2/{db}/rf={rf}",
                     config=_stress_config(db, scale, rf),
                     runs=_ramp_runs(workloads, scale),
                     warm=WarmSpec())
            for rf in rfs]


def _consistency_cells(db: str, scale: SweepScale, modes: Sequence[str],
                       workloads: Sequence[str]) -> list[CellSpec]:
    """One cell per consistency round (ONE, QUORUM, write-ALL), all at
    replication factor 3 — the cache-resident side of the paper's
    regime (hence the wider block cache), so the spreads reflect the
    replication protocol (ack waits, digests, repairs), not disk spill."""
    return [CellSpec(key=mode,
                     label=f"fig3/{db}/{mode}",
                     config=_stress_config(db, scale, 3, cache_units=8.0),
                     runs=_ramp_runs(workloads, scale,
                                     **_cl_values(CONSISTENCY_MODES[mode])),
                     warm=WarmSpec())
            for mode in modes]


# -- Failover campaigns: db x fault type x consistency level ----------------

#: The consistency rounds a Cassandra failover campaign compares: weak
#: (rides out the crash on hinted handoff) vs quorum (pays availability
#: for consistency).  HBase has no per-request CL; its campaigns run a
#: single ``n/a`` mode.
FAILOVER_CL_MODES: dict[str, tuple[ConsistencyLevel, ConsistencyLevel]] = {
    "ONE": (ConsistencyLevel.ONE, ConsistencyLevel.ONE),
    "QUORUM": (ConsistencyLevel.QUORUM, ConsistencyLevel.QUORUM),
}


@dataclass(frozen=True)
class FailoverScale:
    """Scale knobs for fault-injection campaigns.

    The run is throttled well below peak (the Pokluda et al. probe
    methodology): at an offered load the healthy cluster meets easily, a
    throughput dip or error burst is unambiguously the fault's doing.
    """

    record_count: int = 6_000
    operation_count: int = 36_000
    n_threads: int = 24
    n_nodes: int = 10
    target_throughput: float = 2_000.0
    #: When the fault fires, seconds after the measured run starts.
    fault_at_s: float = 4.0
    #: How long it lasts (crash downtime, partition/degradation window).
    fault_duration_s: float = 10.0
    #: Service-time multiplier for the gray-failure kinds.
    severity: float = 8.0
    seed: int = 42


#: Fast settings for tests, CI chaos smoke, and --quick campaigns.
QUICK_FAILOVER_SCALE = FailoverScale(record_count=3_000,
                                     operation_count=10_000,
                                     n_threads=16, n_nodes=8,
                                     target_throughput=1_000.0,
                                     fault_at_s=2.0, fault_duration_s=5.0)


def _failover_cells(db: str, scale: FailoverScale, faults: Sequence[str],
                    modes: Sequence[str]) -> list[CellSpec]:
    """One degraded run per (fault kind, consistency mode); each
    summary's ``failover`` entry is the availability report (time to
    detection / recovery, errors by type, stale reads, timeline)."""
    if db != "cassandra":
        modes = ("n/a",)
    cells = []
    for kind in faults:
        for mode in modes:
            config = default_stress_config(
                db, "read_update", replication=3,
                target_throughput=scale.target_throughput, seed=scale.seed)
            config = _sized(
                config, scale,
                storage=scaled_stress_storage(scale.record_count, 1000,
                                              scale.n_nodes - 1),
                faults=(_node0_fault(kind, scale.fault_at_s,
                                     scale.fault_duration_s,
                                     severity=scale.severity),))
            cells.append(CellSpec(
                key=(kind, mode),
                label=f"failover/{db}/{kind}/cl={mode}",
                config=config,
                runs=(RunSpec(workload="read_update",
                              target_throughput=scale.target_throughput,
                              faults=True,
                              **_cl_values(FAILOVER_CL_MODES.get(mode))),),
                warm=WarmSpec(operations=max(2_000,
                                             scale.operation_count // 6))))
    return cells


# -- Tail-latency defense campaigns: db x scenario x defense mode -----------

#: Defense stacks in the order the campaign compares them: no defense,
#: deadline propagation + bounded queues + admission control, and the
#: same plus hedged reads.
TAIL_MODES = ("none", "deadline", "hedge")

#: The two stress scenarios the defenses are judged under: one
#: gray-degraded replica under throttled load (hedging's home turf) and
#: a uniformly overloaded cluster at full speed (where hedging cannot
#: help and bounded queues must shed).  ``"healthy"`` — the same
#: throttled cell with no fault at all — is also accepted as a control
#: (it anchors "what should the median look like" comparisons) but is
#: not part of the default campaign.
TAIL_SCENARIOS = ("slow_replica", "overload")


@dataclass(frozen=True)
class TailScale:
    """Scale knobs for tail-latency defense campaigns."""

    record_count: int = 6_000
    operation_count: int = 24_000
    n_threads: int = 24
    n_nodes: int = 8
    #: Throttled offered load for the gray-fault scenario — low enough
    #: that the healthy cluster meets it with slack, so the p99 spread
    #: is unambiguously the slow replica's doing.
    target_throughput: float = 2_000.0
    #: The overload scenario instead runs unthrottled with this many
    #: closed-loop threads — deliberately past the bounded queues' total
    #: capacity, so shedding (not hedging) is the operative defense.
    overload_threads: int = 96
    overload_operations: int = 12_000
    #: When the gray fault fires / how long it lasts, relative to the
    #: measured run's start.
    fault_at_s: float = 2.0
    fault_duration_s: float = 8.0
    #: Disk service-time multiplier for the gray-degraded replica.
    slowdown: float = 8.0
    # Defense parameters (modes "deadline" and "hedge").  The hedge
    # trigger sits above the healthy cache-miss latency so speculation
    # targets the gray replica's stragglers, not every disk read.
    deadline_s: float = 0.25
    hedge: str = "p95"
    handler_slots: int = 4
    max_handler_queue: int = 8
    max_inflight: int = 48
    seed: int = 42


#: Fast settings for tests, CI chaos smoke, and --quick campaigns.
QUICK_TAIL_SCALE = TailScale(record_count=3_000, operation_count=8_000,
                             n_threads=16, target_throughput=1_200.0,
                             overload_threads=64, overload_operations=5_000,
                             fault_at_s=1.5, fault_duration_s=5.0)


def tail_defense_for_mode(mode: str, scale: TailScale) -> TailDefenseConfig:
    """The tail-defense stack a campaign mode enables ("hedge" is the
    "deadline" stack plus hedged reads)."""
    if mode == "none":
        return TailDefenseConfig()
    return TailDefenseConfig(deadline_s=scale.deadline_s,
                             hedge=scale.hedge if mode == "hedge" else None,
                             handler_slots=scale.handler_slots,
                             max_handler_queue=scale.max_handler_queue,
                             max_inflight=scale.max_inflight)


def _tail_cells(db: str, scale: TailScale, modes: Sequence[str],
                scenarios: Sequence[str]) -> list[CellSpec]:
    """One cell per (scenario, defense mode).  The block cache covers
    ~40% of one storage tree, so a steady fraction of reads misses to
    the spindle — the population whose tail the defenses act on."""
    cells = []
    for scenario in scenarios:
        for mode in modes:
            config = default_stress_config(
                db, "read_mostly", replication=3,
                target_throughput=scale.target_throughput, seed=scale.seed)
            config = _sized(
                config, scale,
                storage=disk_exposed_storage(db, scale.record_count,
                                             scale.n_nodes - 1, 0.4),
                # Keep every read hedgeable: a background repair pulls
                # all replicas into the read path, which leaves no spare
                # replica to hedge to for that request.
                cassandra=replace(config.cassandra, read_repair_chance=0.0),
                tail=tail_defense_for_mode(mode, scale))
            run = RunSpec(workload="read_mostly",
                          target_throughput=scale.target_throughput)
            if scenario == "slow_replica":
                config = replace(config, faults=(_node0_fault(
                    "slow_disk", scale.fault_at_s, scale.fault_duration_s,
                    severity=scale.slowdown),))
                run = replace(run, faults=True)
            elif scenario == "overload":
                # Unthrottled, far more closed-loop threads.  ("healthy"
                # stays the fault-free control at the throttled load:
                # what the latency profile looks like with nothing wrong.)
                config = replace(config,
                                 operation_count=scale.overload_operations,
                                 n_threads=scale.overload_threads,
                                 target_throughput=None)
                run = RunSpec(workload="read_mostly")
            cells.append(CellSpec(
                key=(scenario, mode),
                label=f"tail/{db}/{scenario}/{mode}",
                config=config,
                runs=(run,),
                warm=WarmSpec(operations=max(2_000,
                                             scale.operation_count // 6))))
    return cells


# -- Flash-crowd survival: the open-loop client tier ------------------------

#: Defense stacks, weakest to strongest.  "undefended" is the classic
#: anti-pattern: per-arrival unbounded concurrency plus uncapped
#: client retries — the configuration that turns a transient overload
#: into a metastable retry storm.  Each later mode adds defenses on
#: top of the previous one; "full" also enables the PR-3 server-side
#: tail stack (deadlines + bounded handler queues) so the client and
#: server defenses are measured composed, not in isolation.
SURGE_MODES = ("undefended", "breaker", "breaker+budget+leveling", "full")

#: Arrival scenarios: a steady Poisson control, a 10x flash crowd, and
#: the same flash crowd landing on a cluster with one gray-degraded
#: replica (the compound failure where breakers must trip *and* the
#: leveler must shed).
SURGE_SCENARIOS = ("steady", "flash_crowd", "flash_crowd+slow_replica")


@dataclass(frozen=True)
class SurgeScale:
    """Scale knobs for flash-crowd survival campaigns."""

    record_count: int = 8_000
    n_nodes: int = 8
    #: Steady offered rate, arrivals/s — comfortably under the healthy
    #: cluster's capacity so the steady scenario is a clean control.
    base_rate: float = 600.0
    max_arrivals: int = 20_000
    #: Simulated user population; per-arrival users are zipf-skewed, so
    #: a small hot set dominates (what makes the cache-aside tier pay).
    n_users: int = 1_000_000
    n_tenants: int = 8
    #: Flash crowd: offered rate multiplies by ``spike_factor`` for
    #: ``spike_duration_s`` starting at ``spike_at_s``.
    spike_at_s: float = 4.0
    spike_factor: float = 10.0
    spike_duration_s: float = 6.0
    #: Gray fault for the compound scenario — one replica's disk slowed
    #: under the spike, like the tail campaign's ``slow_replica``.
    slowdown: float = 8.0
    #: Client-side operation deadline, applied in *every* mode so the
    #: comparison isolates the defenses, not the timeout.  Short enough
    #: that a spike's queueing delay exhausts patience (timed-out work
    #: still burns server capacity — the waste retries amplify), yet an
    #: order of magnitude above the healthy p99.9.
    op_timeout_s: float = 0.25
    retries: int = 3
    retry_backoff_s: float = 0.05
    #: Finagle-style retry budget: retries may add at most this
    #: fraction on top of first attempts (modes with "budget").
    budget_ratio: float = 0.2
    breaker_failure_rate: float = 0.5
    breaker_cooldown_s: float = 1.0
    leveling_workers: int = 48
    leveling_queue: int = 256
    #: Edge cache: a couple of spike-lengths of staleness tolerance on
    #: the zipf head absorbs most repeat reads during the surge (the
    #: oracle still prices every stale serve; ``max_staleness_lag_s``
    #: vs this TTL is the campaign's QoD budget check).
    cache_ttl_s: float = 2.0
    cache_capacity: int = 4_096
    #: Per-tenant rate limit as a multiple of the fair steady share
    #: (``base_rate / n_tenants``) — admits normal traffic with slack,
    #: clips the spike at the door.
    rate_limit_factor: float = 6.0
    #: Server RPC threadpool, bounded in *every* mode (a real server's
    #: handler count is finite — this is what couples a disk-miss
    #: pileup to the cached fast path and lets overload collapse
    #: goodput rather than only stretch latency).
    handler_slots: int = 16
    max_handler_queue: int = 32
    #: Mode "full" additionally propagates a deadline with each RPC
    #: (PR-3 composition): replica-side work is abandoned once the
    #: budget is spent, so a timed-out request stops wasting capacity.
    deadline_s: float = 0.5
    seed: int = 42


#: Fast settings for tests, CI surge smoke, and --quick campaigns.
QUICK_SURGE_SCALE = SurgeScale(n_nodes=6, max_arrivals=15_000,
                               n_users=100_000, spike_at_s=3.0,
                               spike_duration_s=4.0,
                               leveling_workers=32, leveling_queue=128)


def surge_arrivals(scenario: str, scale: SurgeScale) -> ArrivalConfig:
    """The arrival process a surge scenario offers."""
    return _arrivals("poisson" if scenario == "steady" else "flash_crowd",
                     scale)


def surge_tier_for_mode(mode: str, scale: SurgeScale) -> ClientTierConfig:
    """The client-tier defense stack a campaign mode enables.

    Every mode (including "undefended") shares the same operation
    deadline and retry count, so the modes differ only in defenses:
    the undefended stack retries without a budget and dispatches with
    unbounded concurrency — exactly the retry-storm anti-pattern.
    Each later mode adds its defenses on top of the previous one's.
    """
    level = SURGE_MODES.index(mode)
    tier = ClientTierConfig(retries=scale.retries,
                            retry_backoff_s=scale.retry_backoff_s,
                            op_timeout_s=scale.op_timeout_s)
    if level >= 1:  # breaker
        tier = replace(tier,
                       breaker_failure_rate=scale.breaker_failure_rate,
                       breaker_cooldown_s=scale.breaker_cooldown_s)
    if level >= 2:  # + retry budget + queue-based load leveling
        tier = replace(tier, retry_budget_ratio=scale.budget_ratio,
                       leveling_workers=scale.leveling_workers,
                       leveling_queue=scale.leveling_queue)
    if level >= 3:  # full: + per-tenant rate limit + cache-aside
        per_tenant = scale.rate_limit_factor * (scale.base_rate
                                                / scale.n_tenants)
        tier = replace(tier, rate_limit_per_tenant=per_tenant,
                       rate_limit_burst=per_tenant,
                       cache_ttl_s=scale.cache_ttl_s,
                       cache_capacity=scale.cache_capacity)
    return tier


def _surge_cells(db: str, scale: SurgeScale, modes: Sequence[str],
                 scenarios: Sequence[str]) -> list[CellSpec]:
    """One open-loop cell per (scenario, defense mode).

    Cassandra cells run at CL ONE with the consistency oracle recording
    *outside* the cache-aside tier: stale cache hits are expected (and
    bounded by the TTL) under a weak CL, while convergence violations
    remain unexpected either way.  HBase cells skip the check — a
    client-side cache deliberately breaks the strong single-master
    model, so "violations" there would only restate the cache TTL.
    """
    cells = []
    for scenario in scenarios:
        for mode in modes:
            config = default_surge_config(
                db, arrivals=surge_arrivals(scenario, scale),
                clienttier=surge_tier_for_mode(mode, scale),
                record_count=scale.record_count, n_nodes=scale.n_nodes,
                seed=scale.seed)
            # Every mode runs against the same bounded server threadpool
            # (a real server's handler count is finite); only "full"
            # adds deadline propagation, which abandons replica-side
            # work once a request's budget is spent.
            config = replace(config, tail=TailDefenseConfig(
                deadline_s=scale.deadline_s if mode == "full" else None,
                handler_slots=scale.handler_slots,
                max_handler_queue=scale.max_handler_queue))
            check = db == "cassandra"
            run = RunSpec(workload="read_mostly", open_loop=True,
                          read_cl="ONE" if check else None,
                          write_cl="ONE" if check else None,
                          check=check)
            if scenario == "flash_crowd+slow_replica":
                config = replace(config, faults=(_node0_fault(
                    "slow_disk", scale.spike_at_s,
                    scale.spike_duration_s + 2.0,
                    severity=scale.slowdown),))
                run = replace(run, faults=True)
            cells.append(CellSpec(
                key=(scenario, mode),
                label=f"surge/{db}/{scenario}/{mode}",
                config=config,
                runs=(run,),
                warm=WarmSpec(operations=max(1_000,
                                             scale.max_arrivals // 6))))
    return cells


# -- Elasticity campaigns: db x scale mode x arrival shape ------------------

#: Arrival shapes the elasticity campaign scales under: a diurnal ramp
#: (the canonical autoscaler workload — load climbs predictably into a
#: busy period) and a flash crowd (the shape that punishes slow
#: reactions: by the time a bootstrap finishes streaming, the spike may
#: already be over).
ELASTIC_SCENARIOS = ("diurnal", "flash_crowd")


@dataclass(frozen=True)
class ElasticScale:
    """Scale knobs for elasticity campaigns (``repro-bench scale``).

    Every mode — ``static`` (the control), ``manual`` (operator-
    scheduled scale-out) and ``auto`` (p95-driven policy loop) — runs
    on identical hardware: the spares are provisioned in all three, so
    a latency difference is the scaling *decision's* doing, never the
    fleet size's.
    """

    record_count: int = 3_000
    #: Machines including the client; ``spare_nodes`` of the servers
    #: start outside the serving set.
    n_nodes: int = 8
    spare_nodes: int = 1
    #: Steady (base) arrival rate, arrivals/s.
    base_rate: float = 700.0
    max_arrivals: int = 12_000
    n_users: int = 100_000
    n_tenants: int = 8
    #: Diurnal shape: one full cycle, trough -> peak -> trough.  The
    #: process starts at the trough (near-silent for peak factors >= 2),
    #: so the busy period lands mid-run.
    period_s: float = 16.0
    peak_factor: float = 3.0
    #: Flash-crowd shape.
    spike_at_s: float = 4.0
    spike_factor: float = 6.0
    spike_duration_s: float = 6.0
    #: Manual mode: when the operator scales out, relative to the run's
    #: start — inside the busy window for both shapes.
    manual_at_s: float = 5.0
    #: Autoscaler policy (see :class:`repro.core.config.ElasticityConfig`).
    window_s: float = 0.5
    p95_breach_ms: float = 60.0
    breach_windows: int = 2
    #: Scale-in threshold.  Campaign cells serve from a bimodal latency
    #: mix (sub-ms cache hits vs ~10 ms disk reads), so the relax bar
    #: sits below the cache-hit floor: a window only counts as idle when
    #: *everything* in it was trivial — a lull, not a healthy mix.
    p95_relax_ms: float = 0.5
    idle_windows: int = 8
    cooldown_s: float = 6.0
    seed: int = 42


#: Fast settings for tests, the CI scale smoke, and --quick campaigns.
#: Arrivals are sized so several seconds of traffic land *after* the
#: transfer finishes — the "after" phase the recovery claim is read from.
#: The diurnal peak is 4x the base rate (2,000/s): that carries the
#: static HBase cluster's p95 to 5-10x the breach bar at every seed
#: tried; at 3x it crossed the bar only when a compaction happened to
#: collide with the peak.
QUICK_ELASTIC_SCALE = ElasticScale(record_count=1_200, n_nodes=6,
                                   base_rate=500.0, max_arrivals=6_000,
                                   period_s=10.0, peak_factor=4.0,
                                   spike_at_s=2.5, spike_duration_s=4.0,
                                   manual_at_s=4.0, cooldown_s=4.0)


def elastic_arrivals(scenario: str, scale: ElasticScale) -> ArrivalConfig:
    """The arrival process an elasticity scenario offers."""
    return _arrivals(scenario, scale)


def elasticity_for_mode(mode: str, scale: ElasticScale) -> ElasticityConfig:
    """The elasticity plan a campaign mode arms.

    All three modes provision the same spares; they differ only in who
    (if anyone) decides to use them.
    """
    return ElasticityConfig(
        mode=mode,
        spare_nodes=scale.spare_nodes,
        events=(ScaleEventSpec(action="out", at_s=scale.manual_at_s),),
        window_s=scale.window_s,
        p95_breach_ms=scale.p95_breach_ms,
        breach_windows=scale.breach_windows,
        p95_relax_ms=scale.p95_relax_ms,
        idle_windows=scale.idle_windows,
        cooldown_s=scale.cooldown_s)


def _scale_cells(db: str, scale: ElasticScale, modes: Sequence[str],
                 scenarios: Sequence[str]) -> list[CellSpec]:
    """One open-loop cell per (scenario, scale mode).

    Every cell records a Jepsen-style history for the oracle: the
    elasticity safety contract — no acknowledged write lost across a
    bootstrap/decommission/rebalance — is checked *through* the
    topology change, not just asserted by unit tests.  Cassandra cells
    run at QUORUM/QUORUM (pending double-writes must preserve the
    quorum guarantee mid-stream); HBase's single-master model is strong
    by construction.
    """
    cells = []
    for scenario in scenarios:
        for mode in modes:
            config = default_scale_config(
                db, elasticity=elasticity_for_mode(mode, scale),
                arrivals=elastic_arrivals(scenario, scale),
                record_count=scale.record_count, n_nodes=scale.n_nodes,
                seed=scale.seed)
            cassandra = db == "cassandra"
            run = RunSpec(workload="read_mostly", open_loop=True,
                          read_cl="QUORUM" if cassandra else None,
                          write_cl="QUORUM" if cassandra else None,
                          check=True, scale=True)
            cells.append(CellSpec(
                key=(scenario, mode),
                label=f"scale/{db}/{scenario}/{mode}",
                config=config,
                runs=(run,),
                warm=WarmSpec(operations=max(1_000,
                                             scale.max_arrivals // 6))))
    return cells


# -- Adaptive-consistency campaigns: policy x offered load ------------------

@dataclass(frozen=True)
class AdaptiveScale:
    """Scale knobs for adaptive-consistency campaigns.

    The scenario is calibrated so the three SLO forces all actively
    pull on the controller:

    - Storage runs at the micro tuning (tiny memtables, a 64 KB block
      cache) so reads are disk-exposed and the latency gap between CL
      ONE and QUORUM is wide (~35 vs ~105 ms p95 at the default load)
      — the ``p95_ms`` SLO sits *between* them, so the latency half of
      the SLO genuinely fights the staleness half.
    - A replica crash early in each run makes weak reads *provably*
      stale: the restarted node serves its pre-crash state until
      hinted handoff replays, and ``hint_replay_interval_s`` throttles
      that replay so the stale window is long enough for the oracle to
      catch static-ONE breaking the declared bound.  (Healthy runs
      show zero provable staleness here — FIFO per-node delivery means
      fan-out mutations always beat later reads — which is exactly why
      the campaign, like ``repro-bench check``, studies faults.)
    - Read repair is disabled so the staleness window under test stays
      open instead of being quietly closed by the anti-entropy path.
    """

    record_count: int = 300
    n_threads: int = 8
    n_nodes: int = 6
    #: Offered-load ramp (ops/s).  Operation counts scale with the
    #: target (``target x duration_s``) so every run spans the same
    #: simulated time — and therefore the same fault schedule.
    targets: tuple = (600.0, 1_200.0, 2_400.0)
    duration_s: float = 4.0
    #: The declared SLO (see :class:`repro.core.config.AdaptiveConfig`).
    p95_ms: float = 50.0
    staleness_s: float = 0.25
    risk_rate: float = 0.002
    window_s: float = 0.5
    decay_windows: int = 3
    #: Throttled hinted handoff: a restarted replica stays stale for up
    #: to one interval.
    hint_replay_interval_s: float = 3.0
    #: Replica crash injected into every measured run (relative to the
    #: run's start).
    fault_at_s: float = 0.5
    fault_duration_s: float = 1.5
    seed: int = 0


#: Fast settings for tests, CI smoke, and --quick campaigns: the one
#: calibrated load point where the ONE/QUORUM p95 gap brackets the SLO.
#: The replay interval is stretched half a second past the default so the
#: restarted replica's stale window (restart at t=2.0 until replay) is
#: wide enough that static ONE breaks the declared bound with margin —
#: the short quick runs leave only a handful of provably stale reads, and
#: the calibrated point must not sit within schedule-jitter of the bound.
QUICK_ADAPTIVE_SCALE = AdaptiveScale(targets=(1_200.0,),
                                     hint_replay_interval_s=3.5)


def _adaptive_cells(db: str, scale: AdaptiveScale,
                    policies: Sequence[str]) -> list[CellSpec]:
    """One cell per policy; each runs the offered-load ramp at RF 3
    with the crash schedule armed and the consistency oracle recording.

    Each summary carries both the ``decisions`` log (per-window CL
    timeline, policy counters, digest) and the oracle's ``consistency``
    report (violation counts and the worst provable staleness lag) —
    the two halves the SLO is judged against.
    """
    cells = []
    for policy in policies:
        config = ExperimentConfig(
            db=db,
            workload=STRESS_WORKLOADS["read_mostly"],
            record_count=scale.record_count,
            operation_count=int(scale.targets[0] * scale.duration_s),
            n_threads=scale.n_threads,
            target_throughput=scale.targets[0],
            n_nodes=scale.n_nodes,
            seed=scale.seed,
            # Micro storage tuning: disk-exposed reads (see class doc).
            storage=MICRO_STORAGE,
            cassandra=CassandraConfig(
                read_cl=ConsistencyLevel.ONE,
                write_cl=ConsistencyLevel.ONE,
                read_repair_chance=0.0,
                blocking_read_repair=False,
                hint_replay_interval_s=scale.hint_replay_interval_s),
            adaptive=_slo(scale),
            faults=(_node0_fault("crash", scale.fault_at_s,
                                 scale.fault_duration_s),))
        cells.append(CellSpec(
            key=policy,
            label=f"adaptive/{db}/{policy}",
            config=config,
            runs=tuple(RunSpec(workload="read_mostly",
                               operation_count=int(target * scale.duration_s),
                               target_throughput=target,
                               faults=True, check=True, adaptive=policy)
                       for target in scale.targets),
            warm=None))
    return cells


# -- Geo-replication campaigns: CL mode x WAN scenario x client region ------

#: DC-aware consistency modes the geo campaign compares, as
#: ``mode -> (read_cl, write_cl)`` value strings.  EACH_QUORUM is a
#: write-only level (reading at it is a :class:`ValueError` by design),
#: so that mode pairs it with LOCAL_QUORUM reads — the deployment the
#: Cassandra docs actually recommend when writes must land in every
#: region.
GEO_CL_MODES = {
    "LOCAL_ONE": ("LOCAL_ONE", "LOCAL_ONE"),
    "LOCAL_QUORUM": ("LOCAL_QUORUM", "LOCAL_QUORUM"),
    "EACH_QUORUM": ("LOCAL_QUORUM", "EACH_QUORUM"),
    "QUORUM": ("QUORUM", "QUORUM"),
}

#: WAN scenarios: an untouched baseline, one region cut off (the
#: partition heals inside the run, so hinted handoff and convergence
#: are both exercised), and every cross-DC link stretched.
GEO_SCENARIOS = ("healthy", "dc_partition", "wan_degrade")


@dataclass(frozen=True)
class GeoScale:
    """Scale knobs for geo-replication campaigns.

    Like :class:`FailoverScale`, the run is throttled well below peak so
    availability loss is unambiguously the WAN fault's doing.  The fault
    window ends inside the measured run: the remaining tail is the
    healed period the convergence check judges.
    """

    record_count: int = 3_000
    operation_count: int = 6_000
    n_threads: int = 16
    servers_per_dc: int = 3
    replicas_per_dc: int = 3
    target_throughput: float = 1_200.0
    #: When the WAN fault fires, seconds after the measured run starts.
    fault_at_s: float = 1.0
    #: Partition / degradation window.
    fault_duration_s: float = 2.0
    #: wan_degrade: cross-DC latency + serialization multiplier.
    wan_factor: float = 6.0
    #: dc_partition: which region drops off the WAN.
    partition_dc: str = "ap-southeast"
    seed: int = 42


#: Fast settings for tests, the CI geo smoke, and --quick campaigns.
QUICK_GEO_SCALE = GeoScale(record_count=400, operation_count=800,
                           n_threads=6, servers_per_dc=2,
                           replicas_per_dc=2, target_throughput=600.0,
                           fault_at_s=0.4, fault_duration_s=0.8)


def _geo_fault(scenario: str, scale: GeoScale) -> tuple:
    if scenario == "dc_partition":
        return (FaultSpec(kind="dc_partition",
                          datacenter=scale.partition_dc,
                          at_s=scale.fault_at_s,
                          duration_s=scale.fault_duration_s),)
    if scenario == "wan_degrade":
        return (FaultSpec(kind="wan_degrade",
                          at_s=scale.fault_at_s,
                          duration_s=scale.fault_duration_s,
                          severity=scale.wan_factor),)
    return ()


def _geo_cells(db: str, scale: GeoScale, modes: Sequence[str],
               scenarios: Sequence[str]) -> list[CellSpec]:
    """One cell per (CL mode, WAN scenario); each cell runs the same
    workload once per client region (the region's client node drives the
    load through its local coordinators).  Each summary's
    ``consistency`` entry carries the cross-DC oracle verdict (staleness
    lag, convergence after heal, which guarantees held) and — for the
    faulted scenarios — a ``failover`` availability report."""
    cells = []
    for mode in modes:
        read_cl, write_cl = GEO_CL_MODES[mode]
        for scenario in scenarios:
            config = default_geo_config(
                servers_per_dc=scale.servers_per_dc,
                replicas_per_dc=scale.replicas_per_dc,
                record_count=scale.record_count,
                operation_count=scale.operation_count,
                n_threads=scale.n_threads,
                target_throughput=scale.target_throughput,
                seed=scale.seed,
                faults=_geo_fault(scenario, scale))
            cells.append(CellSpec(
                key=(mode, scenario),
                label=f"geo/{db}/{mode}/{scenario}",
                config=config,
                runs=tuple(RunSpec(workload="read_update",
                                   target_throughput=scale.target_throughput,
                                   read_cl=read_cl, write_cl=write_cl,
                                   faults=scenario != "healthy",
                                   check=True, client_dc=region)
                           for region in config.geo.client_datacenters),
                warm=None))
    return cells


# -- Energy & cost campaigns: db x RF x CL x power mode ---------------------

#: Power-management contenders the energy campaign compares:
#: ``always_on`` (the historical baseline), ``race_to_sleep``
#: (unconditional parking after the idle thresholds) and
#: ``energy_aware`` (Cassandra only: the
#: :class:`~repro.adaptive.policy.EnergyAwarePolicy` routes CLs by the
#: staleness budget and parks replicas per monitoring window).
ENERGY_POWER_MODES = ("always_on", "race_to_sleep", "energy_aware")

#: Consistency rounds priced per database.  HBase has no per-request
#: CL; the adaptive contender routes CLs itself and is keyed
#: ``"adaptive"`` in the sweep.
ENERGY_CL_MODES = {
    "cassandra": ("ONE", "QUORUM"),
    "hbase": ("n/a",),
}


@dataclass(frozen=True)
class EnergyScale:
    """Scale knobs for the energy/cost campaign.

    The load is throttled well below peak on purpose: energy
    efficiency is about what the *idle* capacity costs, so the
    interesting regime is the one where power management has slack to
    harvest.  Storage runs at the micro tuning so reads reach the disk
    and the spindle term participates.  The parking thresholds are
    shrunk to the campaign's time scale (sub-second windows instead of
    a datacenter's seconds-to-minutes) so race-to-sleep visibly trades
    wake latency for joules within a four-second run.
    """

    record_count: int = 300
    #: Client threads.  Weak CLs sustain the offered target with room
    #: to spare; QUORUM's disk-exposed reads saturate the thread pool
    #: and stretch wall-clock — which is itself part of the energy
    #: story (a slower CL burns fleet idle watts for longer per op).
    n_threads: int = 16
    n_nodes: int = 6
    #: Replication factors swept (the paper-shape axis: more replicas,
    #: more fan-out work, more joules per op).
    rfs: tuple = (1, 3)
    #: 50/50 read/update: writes fan out RF-ways on both stores, so the
    #: replication axis moves the dynamic (CPU/disk/NIC) joules instead
    #: of drowning in idle draw the way a read-mostly mix would.
    workload: str = "read_update"
    #: Offered load, ops/s (closed-loop throttled).  Kept well under
    #: the knee on purpose: past it, RF 1's single-replica hotspots
    #: collapse throughput and the run measures queueing, not power.
    target: float = 600.0
    duration_s: float = 12.0
    #: SLO the energy-aware contender steers by.
    p95_ms: float = 50.0
    staleness_s: float = 0.25
    risk_rate: float = 0.002
    window_s: float = 0.5
    decay_windows: int = 3
    #: Power-state machine timing (see :class:`repro.energy.PowerSpec`).
    idle_after_s: float = 0.005
    sleep_after_s: float = 0.25
    pstate_wake_s: float = 0.002
    sleep_wake_s: float = 0.2
    #: Seed 3 + runs long enough that the replication-axis energy delta
    #: clears the closed-loop drain-tail jitter (the last op's latency
    #: times the fleet's idle watts, ~±15 J either way).
    seed: int = 3


#: Fast settings for tests, the CI energy smoke, and --quick campaigns.
QUICK_ENERGY_SCALE = EnergyScale(target=600.0, duration_s=6.0)


def energy_modes(db: str) -> list[tuple[str, str]]:
    """The (CL round, power mode) grid one database compares."""
    if db == "cassandra":
        return [("ONE", "always_on"), ("QUORUM", "always_on"),
                ("ONE", "race_to_sleep"), ("QUORUM", "race_to_sleep"),
                ("adaptive", "energy_aware")]
    return [("n/a", "always_on"), ("n/a", "race_to_sleep")]


def _energy_cells(db: str, scale: EnergyScale) -> list[CellSpec]:
    """One cell per (RF, CL round, power mode), each a healthy
    oracle-checked run at the throttled target.  The energy-aware
    contender's summary also carries the ``decisions`` log with its
    park/unpark counters."""
    cells = []
    ops = int(scale.target * scale.duration_s)
    for rf in scale.rfs:
        for cl, power in energy_modes(db):
            adaptive = "energy-aware" if power == "energy_aware" else None
            energy = EnergyConfig(
                power_mode=("policy" if power == "energy_aware"
                            else power),
                idle_after_s=scale.idle_after_s,
                sleep_after_s=scale.sleep_after_s,
                pstate_wake_s=scale.pstate_wake_s,
                sleep_wake_s=scale.sleep_wake_s)
            level = (ConsistencyLevel.QUORUM if cl == "QUORUM"
                     else ConsistencyLevel.ONE)
            config = ExperimentConfig(
                db=db,
                workload=STRESS_WORKLOADS[scale.workload],
                record_count=scale.record_count,
                operation_count=ops,
                n_threads=scale.n_threads,
                target_throughput=scale.target,
                n_nodes=scale.n_nodes,
                seed=scale.seed,
                # Disk-exposed reads (the micro tuning's tiny block
                # cache) but a gentler flush threshold than the adaptive
                # campaign's: a 50% update mix at 32 KiB flushes leaves a
                # compaction backlog that drains for seconds after the
                # load, all billed at fleet idle watts — pure tail noise.
                storage=replace(MICRO_STORAGE,
                                memtable_flush_bytes=128 * 1024),
                # Durable WAL: energy is priced on the durable path, so
                # every pipeline packet hits each replica's spindle and
                # the HDFS replication factor shows up in the joules
                # (foreground throughput still barely moves — the
                # paper's finding F2).
                hbase=HBaseConfig(replication=rf, regions_per_server=1,
                                  wal_sync=True),
                cassandra=CassandraConfig(
                    replication=rf,
                    read_cl=level, write_cl=level,
                    read_repair_chance=0.0,
                    blocking_read_repair=False),
                adaptive=_slo(scale),
                energy=energy)
            cells.append(CellSpec(
                key=(rf, cl, power),
                label=f"energy/{db}/rf={rf}/{cl}/{power}",
                config=config,
                runs=(RunSpec(workload=scale.workload,
                              operation_count=ops,
                              target_throughput=scale.target,
                              check=True, adaptive=adaptive),),
                warm=None))
    return cells


# -- the campaign table ------------------------------------------------------

@dataclass(frozen=True)
class Arg:
    """One CLI ``add_argument`` call, declaratively."""

    flags: tuple
    kwargs: dict

    @property
    def dest(self) -> str:
        derived = self.flags[0].lstrip("-").replace("-", "_")
        return self.kwargs.get("dest", derived)


def _opt(*flags: str, **kwargs) -> Arg:
    return Arg(flags, kwargs)


@dataclass(frozen=True)
class Axis:
    """One dimension of a campaign's grid a caller may narrow.

    ``values`` is written once: it feeds the CLI flag's ``choices=`` and
    the library-side check in :func:`campaign_cells`.
    """

    #: Keyword of :func:`run_campaign` and of the cell builder
    #: (``"modes"``, ``"scenarios"``, ...).
    name: str
    #: Legal values, in the order the campaign compares them.
    values: tuple
    #: CLI flag (repeatable); ``None`` = library-only axis.
    flag: Optional[str] = None
    help: str = ""
    #: What an unnarrowed run covers; ``None`` = every legal value.
    default: Optional[tuple] = None


@dataclass(frozen=True)
class Campaign:
    """One campaign — and one ``repro-bench`` subcommand — declaratively."""

    name: str
    help: str
    #: ``(full, quick)`` scale pair; ``None`` = nothing to run (table1).
    scales: Optional[tuple] = None
    #: Databases it runs on; more than one adds ``--db`` and one table
    #: (and one ``--report`` entry) per database.
    dbs: tuple = ("hbase", "cassandra")
    axes: tuple = ()
    #: Non-axis flags; in the generic path each reaches the cell builder
    #: as a keyword named after its ``dest``.
    extra: tuple = ()
    #: ``cells(db, scale, **axes) -> list[CellSpec]`` — the only
    #: per-campaign code.  ``None`` = a bespoke CLI body (table1, check).
    cells: Optional[Callable] = None
    #: How the runs inside a cell extend its key (see the splitters).
    split: Callable = _one_run
    #: Names of the result's nesting levels = the table's key columns.
    keys: tuple = ()
    #: ``(header, extractor(leaf))`` pairs after the key columns.
    columns: tuple = ()
    #: Table title; ``{db}`` is filled in.
    title: str = ""
    #: Optional second title line, derived from one leaf.
    subtitle: Optional[Callable] = None
    #: Replaces the one-row-per-leaf table (Figure 3's transposed panels).
    render: Optional[Callable] = None
    #: ``(flag name, help, render(db, leaves))``: blocks printed after
    #: the table when the on/off flag is given.
    details: tuple = ()
    #: Apply the oracle gate to every leaf (adds ``--strict``).
    gate: bool = False
    #: Offer ``--report PATH`` (the nested result as JSON).
    report: bool = False


def _rf_range(text: str) -> range:
    return range(1, int(text) + 1)


_MAX_RF = _opt("--max-rf", dest="rfs", type=_rf_range, default=range(1, 7),
               metavar="N", help="sweep replication factors 1..N (default 6)")
_WORKLOADS = Axis("workloads", STRESS_WORKLOAD_ORDER)
_SWEEP_SCALES = (SweepScale(), QUICK_SCALE)

CAMPAIGNS: dict[str, Campaign] = {c.name: c for c in (
    Campaign("table1", "print Table 1"),
    Campaign(
        "fig1", "micro benchmark for replication",
        scales=_SWEEP_SCALES, extra=(_MAX_RF,),
        cells=_micro_cells, split=_per_op,
        keys=("RF",), columns=report.micro_columns(MICRO_OP_ORDER),
        title="Fig.1 ({db}): micro latency vs replication factor"),
    Campaign(
        "fig2", "stress benchmark for replication",
        scales=_SWEEP_SCALES, axes=(_WORKLOADS,), extra=(_MAX_RF,),
        cells=_stress_cells, split=_per_workload(_peak_point),
        keys=("RF", "workload"), columns=report.STRESS_COLUMNS,
        title="Fig.2 ({db}): stress peak throughput/latency vs "
              "replication factor"),
    Campaign(
        "fig3", "stress benchmark for consistency",
        scales=_SWEEP_SCALES, dbs=("cassandra",),
        axes=(Axis("modes", tuple(CONSISTENCY_MODES)), _WORKLOADS),
        cells=_consistency_cells, split=_per_workload(_ramp_series),
        keys=("mode", "workload"),
        render=report.render_consistency_panels),
    Campaign(
        "failover", "fault-injection campaign (availability report)",
        scales=(FailoverScale(), QUICK_FAILOVER_SCALE),
        axes=(Axis("faults", NODE_FAULT_KINDS, "--fault",
                   "fault kind(s) to inject (default: crash)",
                   default=("crash",)),
              Axis("modes", tuple(FAILOVER_CL_MODES))),
        cells=_failover_cells,
        keys=("fault", "CL"), columns=report.FAILOVER_COLUMNS,
        title="Failover campaign ({db}): availability under injected "
              "faults",
        details=(("timeline", "print per-second timelines with injection "
                  "markers", report.failover_timelines),)),
    Campaign(
        "tail",
        "tail-latency defense campaign (deadlines, hedged reads, "
        "bounded queues)",
        scales=(TailScale(), QUICK_TAIL_SCALE),
        axes=(Axis("modes", TAIL_MODES, "--mode",
                   "defense stack(s) to compare (default: all)"),
              Axis("scenarios", TAIL_SCENARIOS + ("healthy",), "--scenario",
                   "stress scenario(s) to run (default: both stress "
                   "scenarios; 'healthy' adds the fault-free control "
                   "cell)", default=TAIL_SCENARIOS)),
        cells=_tail_cells,
        keys=("scenario", "defense"), columns=report.TAIL_COLUMNS,
        title="Tail-latency defenses ({db}): latency distribution and "
              "error budget per defense stack"),
    Campaign(
        "check",
        "consistency oracle: explore seeds x fault schedules and verify "
        "the configured guarantees",
        scales=(CheckScale(), QUICK_CHECK_SCALE), gate=True, report=True,
        extra=(
            _opt("--cl", default="QUORUM", choices=sorted(CHECK_CL_MODES),
                 help="Cassandra consistency round (default QUORUM; "
                      "ignored for HBase)"),
            _opt("--seeds", type=int, default=25, metavar="N",
                 help="explore seeds 0..N-1 (default 25)"),
            _opt("--fault", choices=list(NODE_FAULT_KINDS),
                 help="fault-schedule template to inject per seed "
                      "(default: healthy runs)"),
            _opt("--no-repair", action="store_true",
                 help="disable read repair so weak-CL staleness stays "
                      "observable"))),
    Campaign(
        "adaptive",
        "adaptive-consistency campaign: per-request CL policies under a "
        "latency/staleness SLO",
        scales=(AdaptiveScale(), QUICK_ADAPTIVE_SCALE), dbs=("cassandra",),
        axes=(Axis("policies", ADAPTIVE_POLICIES, "--policy",
                   "policy/policies to run (default: all)"),),
        cells=_adaptive_cells, split=_per_run("target_throughput"),
        keys=("policy", "target"), columns=report.ADAPTIVE_COLUMNS,
        title="Adaptive consistency ({db}, RF=3): policy vs offered load",
        subtitle=report.adaptive_slo_line, report=True,
        details=(("timeline", "print per-window CL decision timelines next "
                  "to the latency windows", report.adaptive_timelines),
                 ("digests", "print each run's decision-log digest (the "
                  "determinism witness)", report.adaptive_digests))),
    Campaign(
        "geo",
        "geo-replication campaign: DC-aware consistency levels under WAN "
        "faults and DC partitions",
        scales=(GeoScale(), QUICK_GEO_SCALE), dbs=("cassandra",),
        axes=(Axis("modes", tuple(GEO_CL_MODES), "--mode",
                   "consistency mode(s) to compare (default: all)"),
              Axis("scenarios", GEO_SCENARIOS, "--scenario",
                   "WAN scenario(s) to run (default: all)")),
        cells=_geo_cells, split=_per_run("client_dc"),
        keys=("CL mode", "scenario", "region"), columns=report.GEO_COLUMNS,
        title="Geo-replication campaign ({db}): availability, tail "
              "latency, and staleness per client region under WAN faults",
        gate=True, report=True),
    Campaign(
        "surge",
        "flash-crowd survival campaign: open-loop arrivals vs client-tier "
        "defense stacks",
        scales=(SurgeScale(), QUICK_SURGE_SCALE),
        axes=(Axis("modes", SURGE_MODES, "--mode",
                   "defense stack(s) to compare (default: all)"),
              Axis("scenarios", SURGE_SCENARIOS, "--scenario",
                   "arrival scenario(s) to run (default: all)")),
        cells=_surge_cells,
        keys=("scenario", "defense"), columns=report.SURGE_COLUMNS,
        title="Flash-crowd survival ({db}): offered vs goodput and "
              "refusal breakdown per defense stack",
        gate=True, report=True),
    Campaign(
        "scale",
        "elasticity campaign: live scale-out/in while serving, "
        "oracle-checked across every topology change",
        scales=(ElasticScale(), QUICK_ELASTIC_SCALE),
        axes=(Axis("modes", SCALE_MODES, "--mode",
                   "scale mode(s) to compare: static control, manual "
                   "schedule, autoscaler (default: all)"),
              Axis("scenarios", ELASTIC_SCENARIOS, "--scenario",
                   "arrival shape(s) to run (default: all)")),
        cells=_scale_cells,
        keys=("scenario", "mode"), columns=report.SCALE_COLUMNS,
        title="Elasticity ({db}): per-phase latency across live "
              "scale-out/in, vs the static control",
        gate=True, report=True),
    # --strict: a power mode that saved joules by serving staler reads
    # than the guarantee allows is a bug, not a saving.
    Campaign(
        "energy",
        "energy/cost campaign: joules per op and dollars per Mops across "
        "RF x CL x power-management modes",
        scales=(EnergyScale(), QUICK_ENERGY_SCALE),
        cells=_energy_cells,
        keys=("RF", "CL", "power"), columns=report.ENERGY_CAMPAIGN_COLUMNS,
        title="Energy & cost ({db}): joules/op and $/Mops per RF x CL x "
              "power mode",
        gate=True, report=True),
)}


# -- the generic path --------------------------------------------------------

def _campaign(campaign: Union[str, Campaign]) -> Campaign:
    if isinstance(campaign, Campaign):
        return campaign
    if campaign not in CAMPAIGNS:
        raise ValueError(f"unknown campaign {campaign!r}; "
                         f"choose from {tuple(CAMPAIGNS)}")
    return CAMPAIGNS[campaign]


def campaign_cells(campaign: Union[str, Campaign], db: Optional[str] = None,
                   scale=None, **axes) -> list[CellSpec]:
    """The cells one campaign run executes on ``db``.

    ``db`` may be omitted for single-database campaigns; ``scale``
    defaults to the campaign's full scale; every axis defaults to its
    declared range.  An illegal database or axis value is a
    :class:`ValueError` naming the legal ones.
    """
    campaign = _campaign(campaign)
    if campaign.cells is None:
        raise ValueError(f"campaign {campaign.name!r} has no cells to run")
    if db is None and len(campaign.dbs) == 1:
        db = campaign.dbs[0]
    if db not in campaign.dbs:
        raise ValueError(f"unknown {campaign.name} db {db!r}; "
                         f"choose from {campaign.dbs}")
    for axis in campaign.axes:
        chosen = tuple(axes.get(axis.name) or axis.default or axis.values)
        for value in chosen:
            if value not in axis.values:
                raise ValueError(
                    f"unknown {campaign.name} {axis.name} value {value!r}; "
                    f"choose from {axis.values}")
        axes[axis.name] = chosen
    return campaign.cells(db, scale or campaign.scales[0], **axes)


def run_campaign(campaign: Union[str, Campaign], db: Optional[str] = None,
                 scale=None, runner: Optional[CellRunner] = None,
                 **axes) -> dict:
    """Run one campaign on ``db``; returns the nested result dict.

    The nesting follows the campaign's ``keys`` — e.g. ``tail`` returns
    ``{scenario: {mode: summary}}``, ``geo`` ``{mode: {scenario:
    {region: summary}}}``, ``fig2`` ``{rf: {workload: {"peak_throughput":
    ..., ...}}}`` — where a summary is a
    :func:`~repro.core.experiment.summarize_run` dict.
    """
    campaign = _campaign(campaign)
    cells = campaign_cells(campaign, db, scale, **axes)
    out: dict = {}
    for cell, payload in zip(cells, (runner or CellRunner()).run(cells)):
        key = cell.key if isinstance(cell.key, tuple) else (cell.key,)
        for subkey, leaf in campaign.split(cell, payload["runs"]):
            *path, last = key + subkey
            level = out
            for part in path:
                level = level.setdefault(part, {})
            level[last] = leaf
    return out


def render_campaign(campaign: Union[str, Campaign], sweep: dict,
                    db: Optional[str] = None) -> str:
    """A :func:`run_campaign` result as the campaign's text table: one
    row per leaf, the key columns then the campaign's column list."""
    campaign = _campaign(campaign)
    db = db or campaign.dbs[0]
    if campaign.render is not None:
        return campaign.render(sweep, db)
    leaves = list(report.walk_leaves(sweep, len(campaign.keys)))
    title = campaign.title.format(db=db)
    if campaign.subtitle is not None and leaves:
        title += "\n" + campaign.subtitle(leaves[-1][1])
    return report.render_table(
        [*campaign.keys, *(header for header, _ in campaign.columns)],
        [[*key, *(extract(leaf) for _, extract in campaign.columns)]
         for key, leaf in leaves],
        title=title)
