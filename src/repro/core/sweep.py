"""Campaigns: every experiment of the paper's §4, and every study added
on top of it, declared once and run through one path.

A campaign is one :class:`Campaign` literal in :data:`CAMPAIGNS`: its
name and help line, the ``full`` and ``quick`` :class:`Scale` it runs
at, the axes a caller may narrow (with their legal values), the
databases it runs on, a cell builder, how the runs inside a cell extend
its key, and the columns of its table.  Three generic functions consume
the table:

- :func:`campaign_cells` validates the axes and turns the requested grid
  into :class:`~repro.core.runner.CellSpec` values — one per independent
  ``ExperimentSession``, carrying its ordered workload sequence (the
  paper runs its workloads "one after another" on one loaded cluster);
- :func:`run_campaign` executes them through a
  :class:`~repro.core.runner.CellRunner` — serially (the default),
  across CPU cores, or out of the on-disk cell cache, all bit-identical
  by construction — and nests the JSON-safe payloads by cell key, so
  tests can assert on shapes and ``--report`` can dump them;
- :func:`render_campaign` prints the nested result as the campaign's
  paper-style table.

The CLI (:mod:`repro.core.cli`) derives every subcommand from the same
table.  Adding a campaign is one entry plus its shape test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from repro.adaptive.config import ADAPTIVE_POLICIES
from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.config import (DC_FAULT_KINDS, FAULT_KINDS, SCALE_MODES,
                                  FaultSpec)
from repro.core import report
from repro.core.config import (MICRO_STORAGE,
                               ArrivalConfig,
                               CassandraConfig,
                               ClientTierConfig,
                               ElasticityConfig,
                               EnergyConfig,
                               ExperimentConfig,
                               GeoConfig,
                               SloSpec,
                               TailDefenseConfig,
                               default_micro_config,
                               default_scale_config,
                               default_stress_config,
                               default_surge_config,
                               disk_exposed_storage,
                               scaled_stress_storage)
from repro.core.runner import CellRunner, CellSpec, RunSpec
from repro.energy.power import PowerSpec
from repro.storage.lsm import StorageSpec

__all__ = [
    "ADAPTIVE_POLICIES",
    "Arg",
    "Axis",
    "CAMPAIGNS",
    "CHECK_CL_MODES",
    "CONSISTENCY_MODES",
    "Campaign",
    "ELASTIC_SCENARIOS",
    "ENERGY_MODES",
    "FAILOVER_CL_MODES",
    "GEO_CL_MODES",
    "GEO_SCENARIOS",
    "MICRO_OP_ORDER",
    "NODE_FAULT_KINDS",
    "SCALE_MODES",
    "STRESS_WORKLOAD_ORDER",
    "SURGE_MODES",
    "SURGE_SCENARIOS",
    "Scale",
    "TAIL_MODES",
    "TAIL_SCENARIOS",
    "campaign_cells",
    "render_campaign",
    "run_campaign",
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
class Scale:
    """What a campaign runs at (DESIGN.md §6): sizing, offered load, and
    one fragment per ingredient, typed by the config dataclass the cells
    carry.  Each campaign's ``full`` and ``quick`` literals sit beside
    its cell builder, which reads the fields its cells need and ignores
    the rest.  A field is here because some campaign's ``quick`` changes
    it (``seed`` too: ``check`` varies it per cell); a value every scale
    of a campaign shares is a constant beside its builder.

    An ingredient fragment holds the campaign's *full stack*; the axis
    tables (:data:`SURGE_MODES`, :data:`GEO_SCENARIOS`,
    ``_ARRIVAL_SHAPE``) name the fields of it a mode or scenario keeps.
    A field the cell's code path never reads stays at its class default,
    so a cell's identity (cache fingerprint, pinned digest) carries only
    the knobs that shape it.  The ``geo``
    fragment is the layout itself: a geo cell carries it whole, and it
    sizes the cluster.
    """

    # -- sizing --------------------------------------------------------------
    record_count: int
    #: Machines including the client node.  ``None`` where the topology
    #: sizes itself (geo: ``geo.total_nodes``).
    n_nodes: Optional[int] = None
    n_threads: int = 16
    #: Closed-loop run length.  ``None`` where the length follows from
    #: the offered load: ``target x duration_s`` (adaptive, energy) or
    #: ``arrivals.max_arrivals`` (surge, scale).
    operation_count: Optional[int] = None
    seed: int = 42

    # -- offered load --------------------------------------------------------
    #: Target throughputs offered (ops/s) — a ramp inside each cell
    #: where there are several; ``None`` means unthrottled full speed.
    targets: tuple = (None,)
    #: Simulated seconds each run spans where ``operation_count`` is
    #: derived from the target.
    duration_s: Optional[float] = None

    # -- ingredients: the campaign's full stack of each ----------------------
    #: When the fault fires and how long it lasts, relative to the
    #: measured run's start, plus its shape; the scenario names the kind
    #: and which shape fields (severity / span / datacenter) apply.
    fault: FaultSpec = FaultSpec()
    #: The scenario names ``process`` and the scale mode ``mode``.
    arrivals: ArrivalConfig = ArrivalConfig()
    clienttier: ClientTierConfig = ClientTierConfig()
    elasticity: ElasticityConfig = ElasticityConfig()
    #: adaptive: the engine knobs its cells run with.
    cassandra: CassandraConfig = CassandraConfig()
    #: geo: the datacenters and the replicas placed in each.
    geo: GeoConfig = GeoConfig()

    # -- campaign-specific leftovers -----------------------------------------
    #: tail, scenario ``overload``: closed-loop threads and run length
    #: of the unthrottled cell.
    overload_threads: Optional[int] = None
    overload_operations: Optional[int] = None


# -- shared ingredients ------------------------------------------------------

def _sized(config: ExperimentConfig, scale: Scale,
           **overrides) -> ExperimentConfig:
    """``config`` at the scale's population, run length, client threads
    and cluster size."""
    return replace(config, **{"record_count": scale.record_count,
                              "operation_count": scale.operation_count,
                              "n_threads": scale.n_threads,
                              "n_nodes": scale.n_nodes, **overrides})


def _stress(db: str, scale: Scale, workload: str = "read_mostly",
            replication: int = 3, **overrides) -> ExperimentConfig:
    """The shared stress cell at the scale's sizing, seed and (first)
    target; ``overrides`` replace whole config fields."""
    config = default_stress_config(db, workload, replication=replication,
                                   target_throughput=scale.targets[0],
                                   seed=scale.seed)
    return _sized(config, scale, **overrides)


def _tuned(config: ExperimentConfig, **knobs) -> ExperimentConfig:
    """``config`` with ``knobs`` set on its engine record."""
    return replace(config, engine=replace(config.engine, **knobs))


def _stress_storage(scale: Scale, cache_units: float = 3.2) -> StorageSpec:
    return scaled_stress_storage(scale.record_count, 1000, scale.n_nodes - 1,
                                 cache_units=cache_units)


def _keep(full, *fields: str, **named):
    """``full`` narrowed to ``fields`` (plus the ``named`` values); the
    rest at their class defaults."""
    return type(full)(**{name: getattr(full, name) for name in fields},
                      **named)


def _fault(scale: Scale, kind: str, *shape: str) -> tuple:
    """One ``kind`` fault in the scale's window, keeping the ``shape``
    fields that kind reads.  It hits ``FaultSpec``'s default node 0, a
    server in both deployments (the client — and HBase's master — live
    on the last node)."""
    return (_keep(scale.fault, "at_s", "duration_s", *shape, kind=kind),)


def _cl_values(cls: Optional[tuple]) -> dict:
    """``RunSpec`` CL overrides for one ``(read CL, write CL)`` round."""
    if cls is None:
        return {}
    read_cl, write_cl = cls
    return {"read_cl": read_cl.value, "write_cl": write_cl.value}


#: The shape fields each open-loop arrival process reads off a scale.
_ARRIVAL_SHAPE = {
    "poisson": (),
    "diurnal": ("period_s", "peak_factor"),
    "flash_crowd": ("spike_at_s", "spike_factor", "spike_duration_s"),
}


def _arrivals(process: str, scale: Scale) -> ArrivalConfig:
    return _keep(scale.arrivals, "rate", "max_arrivals", "n_users",
                 "n_tenants", *_ARRIVAL_SHAPE[process], process=process)


def _warm(operations: Optional[int] = None) -> tuple:
    """The §6 cold-start countermeasure: one unmeasured read-heavy run
    (``None``: the config's run length)."""
    return (RunSpec(workload="read_mostly", operation_count=operations),)


def _ramp_runs(workloads: Sequence[str], scale: Scale, **cls) -> tuple:
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

#: The scale-down Figures 1-3 and the ablations share (see DESIGN.md
#: §6) — the one every number of theirs in EXPERIMENTS.md comes from.
_PAPER = Scale(
    record_count=12_000, operation_count=2_500, n_threads=48, n_nodes=16,
    # ``None``, unthrottled, is the point that exposes the true peak.
    targets=(3_000.0, 9_000.0, 16_000.0, None))

_PAPER_QUICK = replace(_PAPER, record_count=5_000, operation_count=1_200,
                       n_threads=12, n_nodes=8,
                       targets=(2_000.0, 8_000.0, None))


def _micro(db: str, scale: Scale, op: str, replication: int,
           **overrides) -> ExperimentConfig:
    """The shared micro cell (§4.1's unsaturated testbed: at most eight
    client threads) at the scale's sizing and seed."""
    config = default_micro_config(db, op, replication=replication,
                                  seed=scale.seed)
    return _sized(config, scale, n_threads=min(scale.n_threads, 8),
                  **overrides)


def _micro_cells(db: str, scale: Scale, rfs: Sequence[int]) -> list[CellSpec]:
    """One cell per replication factor, each running §4.1's op order."""
    cells = []
    for rf in rfs:
        cells.append(CellSpec(
            key=rf,
            label=f"fig1/{db}/rf={rf}",
            config=_micro(db, scale, "update", rf),
            runs=tuple(RunSpec(workload=op) for op in MICRO_OP_ORDER),
            warm=(RunSpec(workload="read",
                          operation_count=scale.operation_count // 2),)))
    return cells


def _ramp_config(db: str, scale: Scale, replication: int,
                 cache_units: float = 3.2) -> ExperimentConfig:
    # The targets are offered run by run; the cell itself is unthrottled.
    return _stress(db, scale, replication=replication, target_throughput=None,
                   storage=_stress_storage(scale, cache_units))


def _stress_cells(db: str, scale: Scale, rfs: Sequence[int],
                  workloads: Sequence[str]) -> list[CellSpec]:
    """One cell per replication factor; each runs every workload in the
    paper's order, sweeping the offered target inside each workload."""
    return [CellSpec(key=rf,
                     label=f"fig2/{db}/rf={rf}",
                     config=_ramp_config(db, scale, rf),
                     runs=_ramp_runs(workloads, scale),
                     warm=_warm())
            for rf in rfs]


def _consistency_cells(db: str, scale: Scale, modes: Sequence[str],
                       workloads: Sequence[str]) -> list[CellSpec]:
    """One cell per consistency round (ONE, QUORUM, write-ALL), all at
    replication factor 3 — the cache-resident side of the paper's
    regime (hence the wider block cache), so the spreads reflect the
    replication protocol (ack waits, digests, repairs), not disk spill."""
    return [CellSpec(key=mode,
                     label=f"fig3/{db}/{mode}",
                     config=_ramp_config(db, scale, 3, cache_units=8.0),
                     runs=_ramp_runs(workloads, scale,
                                     **_cl_values(CONSISTENCY_MODES[mode])),
                     warm=_warm())
            for mode in modes]


# -- Ablations: the mechanism behind F2 and behind F4, one knob each --------

def _ablation_cells(db: str, scale: Scale) -> list[CellSpec]:
    """HBase: the micro insert with the WAL pipeline acking from memory
    (hflush) or from the platter (hsync) at RF 1 and 6 — F2's flatness
    requires in-memory replication.  Cassandra: the micro read at RF 5
    with ``read_repair_chance`` off, at the 2.0 default the paper cites,
    and on every read — F4's climb is the digest fan-out (the replicas
    agree at this load: no mismatch and no repair write at any chance)."""
    cells = []
    if db == "hbase":
        for rf in (1, 6):
            config = _micro(
                db, scale, "insert", rf,
                record_count=max(2_000, scale.record_count // 4),
                operation_count=max(600, scale.operation_count // 4))
            for mode, sync in (("hflush", False), ("hsync", True)):
                cells.append(CellSpec(
                    key=(rf, f"wal={mode}"),
                    label=f"ablation/{db}/rf={rf}/{mode}",
                    config=_tuned(config, wal_sync=sync),
                    runs=(RunSpec(workload="insert"),)))
        return cells
    config = _micro(db, scale, "read", 5)
    for chance in (0.0, 0.1, 1.0):
        cells.append(CellSpec(
            key=(5, f"read_repair_chance={chance}"),
            label=f"ablation/{db}/rf=5/chance={chance}",
            config=_tuned(config, read_repair_chance=chance),
            # The measured reads follow the warm reads and an unmeasured
            # round of updates.
            warm=(RunSpec(workload="read",
                          operation_count=scale.operation_count // 2),
                  RunSpec(workload="update",
                          operation_count=scale.operation_count // 2)),
            runs=(RunSpec(workload="read"),)))
    return cells


# -- Failover campaigns: db x fault type x consistency level ----------------

#: The consistency rounds a Cassandra failover campaign compares: weak
#: (rides out the crash on hinted handoff) vs quorum (pays availability
#: for consistency).  HBase has no per-request CL; its campaigns run a
#: single ``n/a`` mode.
FAILOVER_CL_MODES = {mode: CONSISTENCY_MODES[mode]
                     for mode in ("ONE", "QUORUM")}

#: The run is throttled well below peak (the Pokluda et al. probe
#: methodology): at an offered load the healthy cluster meets easily, a
#: throughput dip or error burst is unambiguously the fault's doing.
_FAILOVER = Scale(
    record_count=6_000, operation_count=36_000, n_threads=24, n_nodes=10,
    targets=(2_000.0,),
    fault=FaultSpec(at_s=4.0, duration_s=10.0, severity=8.0))

_FAILOVER_QUICK = replace(
    _FAILOVER, record_count=3_000, operation_count=10_000, n_threads=16,
    n_nodes=8, targets=(1_000.0,),
    fault=replace(_FAILOVER.fault, at_s=2.0, duration_s=5.0))


def _failover_cells(db: str, scale: Scale, faults: Sequence[str],
                    modes: Sequence[str]) -> list[CellSpec]:
    """One degraded run per (fault kind, consistency mode); each
    summary's ``failover`` entry is the availability report (time to
    detection / recovery, errors by type, stale reads, timeline)."""
    if db != "cassandra":
        modes = ("n/a",)
    cells = []
    for kind in faults:
        for mode in modes:
            cells.append(CellSpec(
                key=(kind, mode),
                label=f"failover/{db}/{kind}/cl={mode}",
                config=_stress(db, scale, "read_update",
                               storage=_stress_storage(scale),
                               faults=_fault(scale, kind, "severity")),
                runs=(RunSpec(workload="read_update",
                              target_throughput=scale.targets[0],
                              **_cl_values(FAILOVER_CL_MODES.get(mode))),),
                warm=_warm(max(2_000, scale.operation_count // 6))))
    return cells


# -- Tail-latency defense campaigns: db x scenario x defense mode -----------

_DEADLINE = TailDefenseConfig(deadline_s=0.25, handler_slots=4,
                              max_handler_queue=8, max_inflight=48)

#: Defense stacks in the order the campaign compares them: no defense,
#: deadline propagation + bounded queues + admission control, and the
#: same plus hedged reads.  The hedge trigger sits above the healthy
#: cache-miss latency so speculation targets the gray replica's
#: stragglers, not every disk read.
TAIL_MODES = {
    "none": TailDefenseConfig(),
    "deadline": _DEADLINE,
    "hedge": replace(_DEADLINE, hedge="p95"),
}

#: The two stress scenarios the defenses are judged under: one
#: gray-degraded replica under throttled load (hedging's home turf) and
#: a uniformly overloaded cluster at full speed (where hedging cannot
#: help and bounded queues must shed).  ``"healthy"`` — the same
#: throttled cell with no fault at all — is also accepted as a control
#: (it anchors "what should the median look like" comparisons) but is
#: not part of the default campaign.
TAIL_SCENARIOS = ("slow_replica", "overload")

_TAIL = Scale(
    record_count=6_000, operation_count=24_000, n_threads=24, n_nodes=8,
    # Throttled offered load for the gray-fault scenario — low enough
    # that the healthy cluster meets it with slack, so the p99 spread
    # is unambiguously the slow replica's doing.
    targets=(2_000.0,),
    # The overload scenario instead runs unthrottled with this many
    # closed-loop threads — deliberately past the bounded queues' total
    # capacity, so shedding (not hedging) is the operative defense.
    overload_threads=96, overload_operations=12_000,
    fault=FaultSpec(at_s=2.0, duration_s=8.0, severity=8.0))

_TAIL_QUICK = replace(
    _TAIL, record_count=3_000, operation_count=8_000, n_threads=16,
    targets=(1_200.0,), overload_threads=64, overload_operations=5_000,
    fault=replace(_TAIL.fault, at_s=1.5, duration_s=5.0))


def _tail_cells(db: str, scale: Scale, modes: Sequence[str],
                scenarios: Sequence[str]) -> list[CellSpec]:
    """One cell per (scenario, defense mode).  The block cache covers
    ~40% of one storage tree, so a steady fraction of reads misses to
    the spindle — the population whose tail the defenses act on."""
    cells = []
    for scenario in scenarios:
        for mode in modes:
            config = _stress(
                db, scale,
                storage=disk_exposed_storage(db, scale.record_count,
                                             scale.n_nodes - 1, 0.4),
                tail=TAIL_MODES[mode])
            if db == "cassandra":
                # Keep every read hedgeable: a background repair pulls
                # all replicas into the read path, which leaves no spare
                # replica to hedge to for that request.
                config = _tuned(config, read_repair_chance=0.0)
            run = RunSpec(workload="read_mostly",
                          target_throughput=scale.targets[0])
            if scenario == "slow_replica":
                config = replace(config, faults=_fault(scale, "slow_disk",
                                                       "severity"))
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
                warm=_warm(max(2_000, scale.operation_count // 6))))
    return cells


# -- Consistency check: db x CL round x fault template x seeds --------------

#: Consistency rounds the explorer can drive (read CL, write CL) —
#: the paper's §4.3 modes.  QUORUM and ALL are strong (R+W > RF at
#: RF 3); ONE is the eventually consistent round the session checkers
#: target.  HBase has no per-request CL and always runs one "n/a" mode.
CHECK_CL_MODES = {**FAILOVER_CL_MODES,
                  "ALL": CONSISTENCY_MODES["write ALL"]}

#: Deliberately small: the oracle needs operation interleavings, not
#: statistical latency mass, and a 50-seed matrix must stay cheap while
#: every key still sees enough operations for the per-key history
#: checkers to bite.  The fault window ends well before the run does
#: (a run lasts ~``operation_count / target`` s), so the history covers
#: fault, heal, *and* the post-heal window where a weak CL serves stale
#: replicas until hint replay / read repair catches up.
_CHECK = Scale(
    record_count=300, operation_count=2_500, n_threads=8, n_nodes=6,
    targets=(1_200.0,),
    fault=FaultSpec(at_s=0.5, duration_s=0.8, severity=6.0, span=1))

_CHECK_QUICK = replace(
    _CHECK, record_count=150, operation_count=1_000, n_threads=6, n_nodes=5,
    targets=(1_000.0,),
    fault=replace(_CHECK.fault, at_s=0.3, duration_s=0.5))


def _check_cells(db: str, scale: Scale, cl: str = "QUORUM",
                 seeds: Union[int, Sequence[int]] = 25,
                 fault: Optional[str] = None,
                 no_repair: bool = False) -> list[CellSpec]:
    """One oracle-checked cell per seed: same template (CL round, fault
    kind), different schedule.  :func:`check_sweep` turns their reports
    into the verdict."""
    if isinstance(seeds, int) and seeds < 1:
        raise ValueError(f"seeds={seeds}: explore at least one seed")
    if db != "cassandra":
        cl = "n/a"
    elif cl not in CHECK_CL_MODES:
        raise ValueError(f"unknown consistency mode {cl!r}; "
                         f"choose from {sorted(CHECK_CL_MODES)}")
    levels = CHECK_CL_MODES.get(cl)
    knobs = {}
    if levels is not None:
        knobs.update(read_cl=levels[0], write_cl=levels[1])
    if no_repair and db == "cassandra":
        # Zero chance and no blocking repair: a weak CL's staleness
        # window stays open for the session checkers to observe instead
        # of being quietly closed by the anti-entropy path under test.
        knobs.update(read_repair_chance=0.0, blocking_read_repair=False)
    cells = []
    for seed in range(seeds) if isinstance(seeds, int) else seeds:
        cells.append(CellSpec(
            key=seed,
            label=f"check/{db}/cl={cl}/{fault or 'healthy'}/seed={seed}",
            config=_tuned(_stress(
                db, replace(scale, seed=seed), "read_update",
                storage=_stress_storage(scale),
                faults=(_fault(scale, fault, "severity", "span")
                        if fault else ())), **knobs),
            runs=(RunSpec(workload="read_update",
                          target_throughput=scale.targets[0], check=True,
                          **_cl_values(levels)),)))
    return cells


# -- Flash-crowd survival: the open-loop client tier ------------------------

_RETRYING = ("retries", "retry_backoff_s", "op_timeout_s")
_BREAKER = _RETRYING + ("breaker_failure_rate",)
_LEVELED = _BREAKER + ("retry_budget_ratio", "leveling_workers",
                       "leveling_queue")

#: Defense stacks, weakest to strongest, as the fields of the scale's
#: ``clienttier`` each keeps.  Every mode shares the same operation
#: deadline and retry count, so the modes differ only in defenses.
#: "undefended" is the classic anti-pattern: per-arrival unbounded
#: concurrency plus uncapped client retries — the configuration that
#: turns a transient overload into a metastable retry storm.  Each later
#: mode adds defenses on top of the previous one: a breaker; a retry
#: budget and queue-based load leveling; per-tenant rate limits and
#: cache-aside.  "full" also enables the PR-3 server-side tail stack
#: (deadlines + bounded handler queues) so the client and server
#: defenses are measured composed, not in isolation.
SURGE_MODES = {
    "undefended": _RETRYING,
    "breaker": _BREAKER,
    "breaker+budget+leveling": _LEVELED,
    "full": _LEVELED + ("rate_limit_per_tenant", "rate_limit_burst",
                        "cache_ttl_s", "cache_capacity"),
}

#: The server RPC threadpool, bounded in *every* surge mode (a real
#: server's handler count is finite — this is what couples a disk-miss
#: pileup to the cached fast path and lets overload collapse goodput
#: rather than only stretch latency).
_SURGE_TAIL = TailDefenseConfig(handler_slots=16, max_handler_queue=32)
#: Mode "full" additionally propagates a deadline with each RPC (the
#: tail campaign's defense, composed with the client tier): replica-side
#: work is abandoned once the budget is spent, so a timed-out request
#: stops wasting capacity.
_SURGE_FULL_TAIL = replace(_SURGE_TAIL, deadline_s=0.5)

#: Arrival scenarios: a steady Poisson control, a 10x flash crowd, and
#: the same flash crowd landing on a cluster with one gray-degraded
#: replica (the compound failure where breakers must trip *and* the
#: leveler must shed).
SURGE_SCENARIOS = ("steady", "flash_crowd", "flash_crowd+slow_replica")

_SURGE = Scale(
    record_count=8_000, n_nodes=8,
    arrivals=ArrivalConfig(
        # Steady offered rate — comfortably under the healthy cluster's
        # capacity so the steady scenario is a clean control.
        rate=600.0, max_arrivals=20_000,
        # Per-arrival users are zipf-skewed, so a small hot set
        # dominates (what makes the cache-aside tier pay).
        n_users=1_000_000, n_tenants=8,
        spike_at_s=4.0, spike_factor=10.0, spike_duration_s=6.0),
    # Gray fault for the compound scenario — one replica's disk slowed
    # from the spike's onset until 2 s after it ends, like the tail
    # campaign's ``slow_replica``.
    fault=FaultSpec(at_s=4.0, duration_s=8.0, severity=8.0),
    clienttier=ClientTierConfig(
        # Client-side operation deadline, applied in *every* mode so the
        # comparison isolates the defenses, not the timeout.  Short
        # enough that a spike's queueing delay exhausts patience
        # (timed-out work still burns server capacity — the waste
        # retries amplify), yet an order of magnitude above the healthy
        # p99.9.
        op_timeout_s=0.25, retries=3, retry_backoff_s=0.05,
        retry_budget_ratio=0.2, breaker_failure_rate=0.5,
        leveling_workers=48, leveling_queue=256,
        # Edge cache: a couple of spike-lengths of staleness tolerance
        # on the zipf head absorbs most repeat reads during the surge
        # (the oracle still prices every stale serve;
        # ``max_staleness_lag_s`` vs this TTL is the campaign's QoD
        # budget check).
        cache_ttl_s=2.0, cache_capacity=4_096,
        # Six times the fair steady share (``rate / n_tenants`` = 75/s):
        # admits normal traffic with slack, clips the spike at the door.
        rate_limit_per_tenant=450.0, rate_limit_burst=450.0))

_SURGE_QUICK = replace(
    _SURGE, n_nodes=6,
    arrivals=replace(_SURGE.arrivals, max_arrivals=15_000, n_users=100_000,
                     spike_at_s=3.0, spike_duration_s=4.0),
    fault=replace(_SURGE.fault, at_s=3.0, duration_s=6.0),
    clienttier=replace(_SURGE.clienttier, leveling_workers=32,
                       leveling_queue=128))


def _surge_cells(db: str, scale: Scale, modes: Sequence[str],
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
                db,
                arrivals=_arrivals(
                    "poisson" if scenario == "steady" else "flash_crowd",
                    scale),
                clienttier=_keep(scale.clienttier, *SURGE_MODES[mode]),
                record_count=scale.record_count, n_nodes=scale.n_nodes,
                seed=scale.seed)
            config = replace(config, tail=(_SURGE_FULL_TAIL if mode == "full"
                                           else _SURGE_TAIL))
            check = db == "cassandra"
            if scenario == "flash_crowd+slow_replica":
                config = replace(config, faults=_fault(scale, "slow_disk",
                                                       "severity"))
            cells.append(CellSpec(
                key=(scenario, mode),
                label=f"surge/{db}/{scenario}/{mode}",
                config=config,
                runs=(RunSpec(workload="read_mostly",
                              read_cl="ONE" if check else None,
                              write_cl="ONE" if check else None,
                              check=check),),
                warm=_warm(max(1_000, scale.arrivals.max_arrivals // 6))))
    return cells


# -- Elasticity campaigns: db x scale mode x arrival shape ------------------

#: Arrival shapes the elasticity campaign scales under: a diurnal ramp
#: (the canonical autoscaler workload — load climbs predictably into a
#: busy period) and a flash crowd (the shape that punishes slow
#: reactions: by the time a bootstrap finishes streaming, the spike may
#: already be over).
ELASTIC_SCENARIOS = ("diurnal", "flash_crowd")

#: Every mode — ``static`` (the control), ``manual`` (operator-scheduled
#: scale-out) and ``auto`` (p95-driven policy loop) — runs on identical
#: hardware: the spares are provisioned in all three, so a latency
#: difference is the scaling *decision's* doing, never the fleet size's;
#: the modes differ only in who (if anyone) decides to use them.
_ELASTIC = Scale(
    record_count=3_000, n_nodes=8,
    arrivals=ArrivalConfig(
        rate=700.0, max_arrivals=12_000, n_users=100_000, n_tenants=8,
        # Diurnal shape: one full cycle, trough -> peak -> trough.  The
        # process starts at the trough (near-silent for peak factors
        # >= 2), so the busy period lands mid-run.
        period_s=16.0, peak_factor=3.0,
        spike_at_s=4.0, spike_factor=6.0, spike_duration_s=6.0),
    elasticity=ElasticityConfig(
        # Manual mode: when the operator scales out, relative to the
        # run's start — inside the busy window for both shapes.
        events=(5.0,), cooldown_s=6.0))

#: Arrivals are sized so several seconds of traffic land *after* the
#: transfer finishes — the "after" phase the recovery claim is read from.
#: The diurnal peak is 4x the base rate (2,000/s): that carries the
#: static HBase cluster's p95 to 5-10x the breach bar at every seed
#: tried; at 3x it crossed the bar only when a compaction happened to
#: collide with the peak.
_ELASTIC_QUICK = replace(
    _ELASTIC, record_count=1_200, n_nodes=6,
    arrivals=replace(_ELASTIC.arrivals, rate=500.0, max_arrivals=6_000,
                     period_s=10.0, peak_factor=4.0,
                     spike_at_s=2.5, spike_duration_s=4.0),
    elasticity=replace(_ELASTIC.elasticity, events=(4.0,), cooldown_s=4.0))


def _scale_cells(db: str, scale: Scale, modes: Sequence[str],
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
                db, elasticity=replace(scale.elasticity, mode=mode),
                arrivals=_arrivals(scenario, scale),
                record_count=scale.record_count, n_nodes=scale.n_nodes,
                seed=scale.seed)
            cassandra = db == "cassandra"
            cells.append(CellSpec(
                key=(scenario, mode),
                label=f"scale/{db}/{scenario}/{mode}",
                config=config,
                runs=(RunSpec(workload="read_mostly",
                              read_cl="QUORUM" if cassandra else None,
                              write_cl="QUORUM" if cassandra else None,
                              check=True),),
                warm=_warm(max(1_000, scale.arrivals.max_arrivals // 6))))
    return cells


# -- Adaptive-consistency campaigns: policy x offered load ------------------

#: The SLO the adaptive and energy campaigns declare.  Its ``p95_ms``
#: sits *between* the disk-exposed p95 of CL ONE and of QUORUM (~35 vs
#: ~105 ms at the adaptive campaign's default load).
_SLO = SloSpec(p95_ms=50.0, risk_rate=0.002)

#: The scenario is calibrated so the three SLO forces all actively pull
#: on the controller:
#:
#: - Storage runs at the micro tuning (tiny memtables, a 64 KB block
#:   cache) so reads are disk-exposed and the latency gap between CL
#:   ONE and QUORUM is wide — the latency half of the SLO genuinely
#:   fights the staleness half.
#: - A replica crash early in each run makes weak reads *provably*
#:   stale: the restarted node serves its pre-crash state until
#:   hinted handoff replays, and ``hint_replay_interval_s`` throttles
#:   that replay so the stale window is long enough for the oracle to
#:   catch static-ONE breaking the declared bound.  (Healthy runs
#:   show zero provable staleness here — FIFO per-node delivery means
#:   fan-out mutations always beat later reads — which is exactly why
#:   the campaign, like ``repro-bench check``, studies faults.)
#: - Read repair is disabled so the staleness window under test stays
#:   open instead of being quietly closed by the anti-entropy path.
_ADAPTIVE = Scale(
    record_count=300, n_threads=8, n_nodes=6, seed=0,
    # Offered-load ramp.  Operation counts scale with the target
    # (``target x duration_s``) so every run spans the same simulated
    # time — and therefore the same fault schedule.
    targets=(600.0, 1_200.0, 2_400.0), duration_s=4.0,
    fault=FaultSpec(at_s=0.5, duration_s=1.5),
    cassandra=CassandraConfig(read_repair_chance=0.0,
                              blocking_read_repair=False,
                              hint_replay_interval_s=3.0))

#: The one calibrated load point where the ONE/QUORUM p95 gap brackets the SLO.
#: The replay interval is stretched half a second past the default so the
#: restarted replica's stale window (restart at t=2.0 until replay) is
#: wide enough that static ONE breaks the declared bound with margin —
#: the short quick runs leave only a handful of provably stale reads, and
#: the calibrated point must not sit within schedule-jitter of the bound.
_ADAPTIVE_QUICK = replace(_ADAPTIVE, targets=(1_200.0,),
                          cassandra=replace(_ADAPTIVE.cassandra,
                                            hint_replay_interval_s=3.5))


def _adaptive_cells(db: str, scale: Scale,
                    policies: Sequence[str]) -> list[CellSpec]:
    """One cell per policy; each runs the offered-load ramp at RF 3
    with the crash schedule armed and the consistency oracle recording.

    Each summary carries both the ``decisions`` log (per-window CL
    timeline, policy counters, digest) and the oracle's ``consistency``
    report (violation counts and the worst provable staleness lag) —
    the two halves the SLO is judged against.
    """
    config = _stress(
        db, scale,
        operation_count=int(scale.targets[0] * scale.duration_s),
        storage=MICRO_STORAGE,  # disk-exposed reads (see _ADAPTIVE)
        engine=scale.cassandra, adaptive=_SLO,
        faults=_fault(scale, "crash"))
    cells = []
    for policy in policies:
        cells.append(CellSpec(
            key=policy,
            label=f"adaptive/{db}/{policy}",
            config=config,
            runs=tuple(RunSpec(workload="read_mostly",
                               operation_count=int(target * scale.duration_s),
                               target_throughput=target,
                               check=True, adaptive=policy)
                       for target in scale.targets)))
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
#: are both exercised), and every cross-DC link stretched.  Each fault
#: scenario is named after its fault kind and lists the shape fields of
#: the scale's ``fault`` that kind reads.
GEO_SCENARIOS = {
    "healthy": None,
    "dc_partition": ("datacenter",),
    "wan_degrade": ("severity",),
}

#: Like failover, the run is throttled well below peak so availability
#: loss is unambiguously the WAN fault's doing.  The fault window ends
#: inside the measured run: the remaining tail is the healed period the
#: convergence check judges.
_GEO = Scale(
    record_count=3_000, operation_count=6_000, n_threads=16,
    targets=(1_200.0,),
    fault=FaultSpec(at_s=1.0, duration_s=2.0, severity=6.0,
                    datacenter="ap-southeast"),
    geo=GeoConfig(
        datacenters=(("eu-west", 3), ("us-west", 3), ("ap-southeast", 3)),
        replication_per_dc=(("eu-west", 3), ("us-west", 3),
                            ("ap-southeast", 3))))

_GEO_QUICK = replace(
    _GEO, record_count=400, operation_count=800, n_threads=6,
    targets=(600.0,),
    fault=replace(_GEO.fault, at_s=0.4, duration_s=0.8),
    geo=GeoConfig(
        datacenters=(("eu-west", 2), ("us-west", 2), ("ap-southeast", 2)),
        replication_per_dc=(("eu-west", 2), ("us-west", 2),
                            ("ap-southeast", 2))))


def _geo_cells(db: str, scale: Scale, modes: Sequence[str],
               scenarios: Sequence[str]) -> list[CellSpec]:
    """One cell per (CL mode, WAN scenario); each cell runs the same
    workload once per client region (the region's client node drives the
    load through its local coordinators).  Each summary's
    ``consistency`` entry carries the cross-DC oracle verdict (staleness
    lag, convergence after heal, which guarantees held) and — for the
    faulted scenarios — a ``failover`` availability report.

    The cells are the shared stress cell on ``scale.geo``'s layout, with
    storage sized to its servers and LOCAL_QUORUM as the deployment's
    default consistency levels (each run names its own)."""
    target = scale.targets[0]
    geo = scale.geo
    base = _stress(db, scale, "read_update",
                   storage=scaled_stress_storage(
                       scale.record_count, 1000,
                       geo.total_nodes - len(geo.datacenters)),
                   engine=CassandraConfig(
                       read_cl=ConsistencyLevel.LOCAL_QUORUM,
                       write_cl=ConsistencyLevel.LOCAL_QUORUM),
                   geo=geo)
    cells = []
    for mode in modes:
        read_cl, write_cl = GEO_CL_MODES[mode]
        for scenario in scenarios:
            shape = GEO_SCENARIOS[scenario]
            config = replace(base, faults=(
                () if shape is None else _fault(scale, scenario, *shape)))
            cells.append(CellSpec(
                key=(mode, scenario),
                label=f"geo/{db}/{mode}/{scenario}",
                config=config,
                runs=tuple(RunSpec(workload="read_update",
                                   target_throughput=target,
                                   read_cl=read_cl, write_cl=write_cl,
                                   check=True, client_dc=region)
                           for region, _ in config.geo.datacenters)))
    return cells


# -- Energy & cost campaigns: db x RF x CL x power mode ---------------------

#: The (CL round, power mode) grid each database compares.  Power
#: modes: ``always_on`` (the historical baseline), ``race_to_sleep``
#: (unconditional parking after the idle thresholds) and
#: ``energy_aware`` (Cassandra only: the
#: :class:`~repro.adaptive.policy.EnergyAwarePolicy` routes CLs by the
#: staleness budget and parks replicas per monitoring window — it is
#: keyed ``"adaptive"`` on the CL axis).  HBase has no per-request CL.
ENERGY_MODES = {
    "cassandra": (("ONE", "always_on"), ("QUORUM", "always_on"),
                  ("ONE", "race_to_sleep"), ("QUORUM", "race_to_sleep"),
                  ("adaptive", "energy_aware")),
    "hbase": (("n/a", "always_on"), ("n/a", "race_to_sleep")),
}

#: 50/50 read/update: writes fan out RF-ways on both stores, so the
#: replication axis moves the dynamic (CPU/disk/NIC) joules instead
#: of drowning in idle draw the way a read-mostly mix would.
_ENERGY_WORKLOAD = "read_update"

#: The paper-shape axis: more replicas, more fan-out work, more joules
#: per op.
_ENERGY_RFS = (1, 3)

#: The parking thresholds are shrunk to the campaign's time scale
#: (sub-second windows instead of a datacenter's seconds-to-minutes) so
#: race-to-sleep visibly trades wake latency for joules within a
#: few-second run.
_ENERGY_POWER = EnergyConfig(power=PowerSpec(idle_after_s=0.005,
                                             sleep_after_s=0.25,
                                             sleep_wake_s=0.2))

#: The load is throttled well below peak on purpose: energy efficiency
#: is about what the *idle* capacity costs, so the interesting regime is
#: the one where power management has slack to harvest.  Storage runs at
#: the micro tuning so reads reach the disk and the spindle term
#: participates.
_ENERGY = Scale(
    record_count=300, n_nodes=6,
    # Weak CLs sustain the offered target with room to spare; QUORUM's
    # disk-exposed reads saturate the thread pool and stretch wall-clock
    # — which is itself part of the energy story (a slower CL burns
    # fleet idle watts for longer per op).
    n_threads=16,
    # Closed-loop throttled.  Kept well under the knee on purpose: past
    # it, RF 1's single-replica hotspots collapse throughput and the run
    # measures queueing, not power.
    targets=(600.0,), duration_s=12.0,
    # Seed 3 + runs long enough that the replication-axis energy delta
    # clears the closed-loop drain-tail jitter (the last op's latency
    # times the fleet's idle watts, ~±15 J either way).
    seed=3)

_ENERGY_QUICK = replace(_ENERGY, duration_s=6.0)


def _energy_cells(db: str, scale: Scale) -> list[CellSpec]:
    """One cell per (RF, CL round, power mode), each a healthy
    oracle-checked run at the throttled target.  The energy-aware
    contender's summary also carries the ``decisions`` log with its
    park/unpark counters."""
    cells = []
    target = scale.targets[0]
    ops = int(target * scale.duration_s)
    for rf in _ENERGY_RFS:
        for cl, power in ENERGY_MODES[db]:
            adaptive = "energy-aware" if power == "energy_aware" else None
            if db == "hbase":
                # Durable WAL: energy is priced on the durable path, so
                # every pipeline packet hits each replica's spindle and
                # the HDFS replication factor shows up in the joules
                # (foreground throughput still barely moves — the
                # paper's finding F2).
                knobs = dict(regions_per_server=1, wal_sync=True)
            else:
                level = (ConsistencyLevel.QUORUM if cl == "QUORUM"
                         else ConsistencyLevel.ONE)
                knobs = dict(read_cl=level, write_cl=level,
                             read_repair_chance=0.0,
                             blocking_read_repair=False)
            config = _tuned(_stress(
                db, scale, _ENERGY_WORKLOAD, rf, operation_count=ops,
                # Disk-exposed reads (the micro tuning's tiny block
                # cache) but a gentler flush threshold than the adaptive
                # campaign's: a 50% update mix at 32 KiB flushes leaves a
                # compaction backlog that drains for seconds after the
                # load, all billed at fleet idle watts — pure tail noise.
                storage=replace(MICRO_STORAGE,
                                memtable_flush_bytes=128 * 1024),
                adaptive=_SLO,
                energy=replace(_ENERGY_POWER,
                               power_mode=("policy" if power == "energy_aware"
                                           else power))), **knobs)
            cells.append(CellSpec(
                key=(rf, cl, power),
                label=f"energy/{db}/rf={rf}/{cl}/{power}",
                config=config,
                runs=(RunSpec(workload=_ENERGY_WORKLOAD,
                              operation_count=ops,
                              target_throughput=target,
                              check=True, adaptive=adaptive),)))
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
    #: The scale an unnarrowed run uses, and its ``--quick`` twin;
    #: ``None`` = nothing to run (table1).
    full: Optional[Scale] = None
    quick: Optional[Scale] = None
    #: Databases it runs on; more than one adds ``--db`` and one table
    #: (and one ``--report`` entry) per database.
    dbs: tuple = ("hbase", "cassandra")
    axes: tuple = ()
    #: Non-axis flags; in the generic path each reaches the cell builder
    #: as a keyword named after its ``dest``.
    extra: tuple = ()
    #: ``cells(db, scale, **axes) -> list[CellSpec]`` — the only
    #: per-campaign code.  ``None`` = nothing to run (table1).
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

CAMPAIGNS: dict[str, Campaign] = {c.name: c for c in (
    Campaign("table1", "print Table 1"),
    Campaign(
        "fig1", "micro benchmark for replication",
        full=_PAPER, quick=_PAPER_QUICK, extra=(_MAX_RF,),
        cells=_micro_cells, split=_per_op,
        keys=("RF",), columns=report.micro_columns(MICRO_OP_ORDER),
        title="Fig.1 ({db}): micro latency vs replication factor"),
    Campaign(
        "fig2", "stress benchmark for replication",
        full=_PAPER, quick=_PAPER_QUICK, axes=(_WORKLOADS,), extra=(_MAX_RF,),
        cells=_stress_cells, split=_per_workload(_peak_point),
        keys=("RF", "workload"), columns=report.STRESS_COLUMNS,
        title="Fig.2 ({db}): stress peak throughput/latency vs "
              "replication factor"),
    Campaign(
        "fig3", "stress benchmark for consistency",
        full=_PAPER, quick=_PAPER_QUICK, dbs=("cassandra",),
        axes=(Axis("modes", tuple(CONSISTENCY_MODES)), _WORKLOADS),
        cells=_consistency_cells, split=_per_workload(_ramp_series),
        keys=("mode", "workload"),
        render=report.render_consistency_panels),
    Campaign(
        "ablation",
        "ablations on the micro benchmark: HBase WAL ack mode (behind F2), "
        "Cassandra read_repair_chance (behind F4)",
        full=_PAPER, quick=_PAPER_QUICK,
        cells=_ablation_cells,
        keys=("RF", "setting"), columns=report.ABLATION_COLUMNS,
        title="Ablation ({db}): micro insert vs HBase WAL ack mode / micro "
              "read vs Cassandra read_repair_chance"),
    Campaign(
        "failover", "fault-injection campaign (availability report)",
        full=_FAILOVER, quick=_FAILOVER_QUICK,
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
        full=_TAIL, quick=_TAIL_QUICK,
        axes=(Axis("modes", tuple(TAIL_MODES), "--mode",
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
        full=_CHECK, quick=_CHECK_QUICK, cells=_check_cells,
        gate=True, report=True,
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
        full=_ADAPTIVE, quick=_ADAPTIVE_QUICK, dbs=("cassandra",),
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
        full=_GEO, quick=_GEO_QUICK, dbs=("cassandra",),
        axes=(Axis("modes", tuple(GEO_CL_MODES), "--mode",
                   "consistency mode(s) to compare (default: all)"),
              Axis("scenarios", tuple(GEO_SCENARIOS), "--scenario",
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
        full=_SURGE, quick=_SURGE_QUICK,
        axes=(Axis("modes", tuple(SURGE_MODES), "--mode",
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
        full=_ELASTIC, quick=_ELASTIC_QUICK,
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
        full=_ENERGY, quick=_ENERGY_QUICK,
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
                   scale: Optional[Scale] = None, **axes) -> list[CellSpec]:
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
    return campaign.cells(db, scale or campaign.full, **axes)


def run_campaign(campaign: Union[str, Campaign], db: Optional[str] = None,
                 scale: Optional[Scale] = None,
                 runner: Optional[CellRunner] = None,
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
