"""Experiment configuration: one object per benchmark cell.

An ingredient a component takes whole (an engine's knobs, the tail
defenses, the arrival stream, the client tier, the SLO, a fault, an
elasticity plan, the geo layout) is defined beside that component and
re-exported here, so the component receives the very record the cell
carries.  Where the component's machinery is armed only by the cells
that carry it, the record sits in the component package's own
``config`` module, so that naming a cell compiles no engine and no
instrument (DESIGN.md §3, "What a process imports").  A value every
cell agrees on is not a field of any record but a constant beside the
code that reads it (``tests/test_config_census.py`` checks that every
leaf takes two values over the product cells).
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Optional

from repro.adaptive.config import SloSpec
from repro.cassandra.config import CassandraConfig
from repro.clienttier.config import ClientTierConfig
from repro.cluster.config import (SPARE_NODES, ElasticityConfig, FaultSpec,
                                  GeoConfig)
from repro.cluster.topology import TailDefenseConfig
from repro.energy.power import POWER_MODES, PowerSpec
from repro.hbase.config import HBaseConfig
from repro.storage.lsm import StorageSpec
from repro.ycsb.config import ArrivalConfig
from repro.ycsb.workload import MICRO_WORKLOADS, STRESS_WORKLOADS, WorkloadSpec

__all__ = [
    "ArrivalConfig",
    "CassandraConfig",
    "ClientTierConfig",
    "ElasticityConfig",
    "EnergyConfig",
    "ExperimentConfig",
    "GeoConfig",
    "HBaseConfig",
    "SloSpec",
    "TailDefenseConfig",
    "config_to_dict",
    "config_to_json",
    "default_micro_config",
    "default_scale_config",
    "default_stress_config",
    "default_surge_config",
    "disk_exposed_storage",
    "engine_config",
]


@dataclass(frozen=True)
class EnergyConfig:
    """Power/cost model for one cell (see :mod:`repro.energy`).

    The all-defaults instance is inert: every node stays always-on, no
    wake latency anywhere, and the meter prices exactly the historical
    utilization integral at the fixed wattages of
    :mod:`repro.energy.power` and the tariffs of
    :mod:`repro.energy.cost`.  ``power_mode`` arms power management:

    - ``"race_to_sleep"`` — every server parks unconditionally after
      its idle threshold (DVFS P-state, then deep sleep), paying
      deterministic wake latency when work arrives;
    - ``"policy"`` — servers start always-on and an
      :class:`repro.adaptive.policy.EnergyAwarePolicy` parks/unparks
      them per monitoring window (requires ``RunSpec.adaptive =
      "energy-aware"``).
    """

    power_mode: str = "always_on"
    #: Power-state thresholds (defaults: a datacenter's time scale).
    power: PowerSpec = field(default_factory=PowerSpec)

    def __post_init__(self) -> None:
        if self.power_mode not in POWER_MODES + ("policy",):
            raise ValueError(
                f"unknown power mode {self.power_mode!r}; choose from "
                f"{POWER_MODES + ('policy',)}")


def check_run_pacing(owner: str, target_throughput: Optional[float],
                     n_threads: Optional[int] = None) -> None:
    """Reject a closed-loop pacing that would silently run another
    experiment: a target of 0 runs unthrottled, zero threads measure
    nothing.  ``None`` means "not given" for both."""
    if target_throughput is not None and not target_throughput > 0:
        raise ValueError(f"{owner}.target_throughput={target_throughput}: "
                         f"must be None (full speed) or > 0")
    if n_threads is not None and n_threads < 1:
        raise ValueError(f"{owner}.n_threads={n_threads}: must be >= 1")


def engine_config(db: str, **knobs) -> HBaseConfig | CassandraConfig:
    """The engine record ``db`` names, with ``knobs`` off its defaults."""
    for engine in (HBaseConfig, CassandraConfig):
        if engine.db == db:
            return engine(**knobs)
    raise ValueError(f"unknown db {db!r}; choose 'hbase' or 'cassandra'")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one benchmark cell reproducibly."""

    #: The leading share of a closed-loop run the client leaves out of
    #: its measurements.
    warmup_fraction: ClassVar[float] = 0.1

    #: The engine the cell runs, with its knobs; the record names it.
    engine: HBaseConfig | CassandraConfig
    workload: WorkloadSpec
    record_count: int
    operation_count: int
    n_threads: int = 16
    #: Offered load cap, ops/s (None = full speed).
    target_throughput: Optional[float] = None
    #: Machines including the client node on a rack; ``None`` there is
    #: the paper's 16.  A geo cell's size is its layout's
    #: (``geo.total_nodes``) and the field stays ``None``.
    n_nodes: Optional[int] = None
    seed: int = 42
    #: Simulated seconds to let background work settle after loading.
    settle_s: float = 5.0
    storage: StorageSpec = field(default_factory=StorageSpec)
    #: Tail-latency defenses (deadline propagation, hedged reads,
    #: bounded queues + shedding).  Defaults to all-off.
    tail: TailDefenseConfig = field(default_factory=TailDefenseConfig)
    #: Adaptive-consistency SLO (only consulted when a run names a
    #: policy via ``RunSpec.adaptive``).
    adaptive: SloSpec = field(default_factory=SloSpec)
    #: Resilient client tier (breaker / retry budget / rate limiter /
    #: leveling / cache-aside); inert by default, consulted by open-loop
    #: runs.
    clienttier: ClientTierConfig = field(default_factory=ClientTierConfig)
    #: Power/cost model (joules/op and $/Mops on every report);
    #: defaults to always-on with the standard testbed wattages.
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    #: Open-loop arrival stream.  A campaign cell drives every measured
    #: run open-loop when it is set; ``None`` means closed-loop only.
    arrivals: Optional[ArrivalConfig] = None
    #: Declarative fault schedule for this cell (``at_s`` relative to the
    #: start of each measured run).  Only armed when the caller runs the
    #: cell with fault injection enabled, as a campaign cell does for
    #: every measured run (never for a warm-up).
    faults: tuple[FaultSpec, ...] = ()
    #: Multi-datacenter deployment (Cassandra only).  ``None`` = the
    #: usual single-rack cluster.
    geo: Optional[GeoConfig] = None
    #: Elasticity plan (``repro-bench scale``): provisions
    #: :data:`~repro.cluster.config.SPARE_NODES` trailing servers
    #: outside the serving set and describes how (if at all) a run
    #: scales the cluster.
    #: ``None`` = the usual fixed-size deployment.  Only armed when the
    #: caller runs the cell with scaling enabled, as a campaign cell does
    #: for every measured run (never for a warm-up).
    elasticity: Optional[ElasticityConfig] = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, (HBaseConfig, CassandraConfig)):
            raise ValueError(f"ExperimentConfig.engine={self.engine!r}: "
                             f"must be an HBaseConfig or a CassandraConfig")
        for name in ("record_count", "operation_count"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"ExperimentConfig.{name}={value}: "
                                 f"must be >= 1")
        check_run_pacing("ExperimentConfig", self.target_throughput,
                         self.n_threads)
        if not self.settle_s >= 0:
            raise ValueError(f"ExperimentConfig.settle_s={self.settle_s}: "
                             f"must be >= 0")
        if self.geo is not None:
            if self.db != "cassandra":
                raise ValueError("geo deployments support Cassandra only "
                                 "(per-DC placement and LOCAL_*/EACH_QUORUM "
                                 "are Cassandra concepts)")
            if self.elasticity is not None:
                raise ValueError("elasticity and geo are mutually "
                                 "exclusive (scaling is single-ring)")
            if self.n_nodes not in (None, self.geo.total_nodes):
                raise ValueError(
                    f"n_nodes={self.n_nodes} does not match the geo "
                    f"layout's {self.geo.total_nodes} nodes "
                    f"(servers + one client per datacenter)")
            object.__setattr__(self, "n_nodes", None)
            return
        if self.n_nodes is None:
            object.__setattr__(self, "n_nodes", 16)
        if self.n_nodes < 2:
            raise ValueError(f"ExperimentConfig.n_nodes={self.n_nodes}: "
                             f"need at least one server node plus the "
                             f"client (>= 2)")
        # n_nodes - 1 servers, less an elastic cell's spares, hold data.
        spares = 0 if self.elasticity is None else SPARE_NODES
        if spares >= self.n_nodes - 1:
            raise ValueError(
                f"n_nodes={self.n_nodes} has {self.n_nodes - 1} servers: "
                f"an elastic cell keeps {SPARE_NODES} spare and needs at "
                f"least one in service")
        if self.replication > self.n_nodes - 1 - spares:
            raise ValueError(f"replication={self.replication} exceeds the "
                             f"{self.n_nodes - 1 - spares} servers holding "
                             f"the data")

    @property
    def db(self) -> str:
        return self.engine.db

    @property
    def replication(self) -> int:
        return self.engine.replication

    def with_replication(self, replication: int) -> "ExperimentConfig":
        """A copy of this config at a different replication factor."""
        return replace(self, engine=replace(self.engine,
                                            replication=replication))


def _jsonify(value):
    """Recursively reduce a config tree to JSON-safe primitives."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    """A JSON-safe dict with every resolved knob of ``config``.

    Used by the cell cache (:mod:`repro.core.runner`) as the identity of
    a benchmark cell: two configs with equal dicts run identical
    simulations (given equal code).  The engine record sits under its
    own name, beside ``db``.
    """
    out = _jsonify(asdict(config))
    out.update(db=config.db, **{config.db: out.pop("engine")})
    return out


def config_to_json(config: ExperimentConfig) -> str:
    """Canonical (sorted-key, compact) JSON form of ``config``."""
    return json.dumps(config_to_dict(config), sort_keys=True,
                      separators=(",", ":"))


#: Micro records are tiny; shrink the memory budgets with them so reads
#: still exercise the disk (the paper's fit-in-memory rule) without
#: making every access a worst-case seek.
MICRO_STORAGE = StorageSpec(memtable_flush_bytes=32 * 1024,
                            block_bytes=4 * 1024,
                            block_cache_bytes=64 * 1024,
                            compaction_min_batch=3,
                            compaction_max_batch=8)


def default_micro_config(db: str, micro_op: str = "read",
                         replication: int = 3,
                         seed: int = 42) -> ExperimentConfig:
    """The paper's micro benchmark, scaled down (tiny records, light load).

    The paper keeps the testbed "in unsaturated state by limiting the
    number of concurrent requests"; a small thread count with no target
    cap does the same here.
    """
    if micro_op not in MICRO_WORKLOADS:
        raise ValueError(f"unknown micro workload {micro_op!r}; "
                         f"choose from {sorted(MICRO_WORKLOADS)}")
    engine = engine_config(db, replication=replication)
    if db == "hbase":
        engine = replace(engine, regions_per_server=1)
    return ExperimentConfig(
        engine=engine,
        workload=MICRO_WORKLOADS[micro_op],
        record_count=30_000,
        operation_count=4_000,
        n_threads=8,
        target_throughput=None,
        seed=seed,
        storage=MICRO_STORAGE,
    )


def scaled_stress_storage(record_count: int, record_bytes: int,
                          n_servers: int,
                          cache_units: float = 3.2) -> StorageSpec:
    """Stress-test storage tuning scaled to the dataset.

    The paper chose 100 M x 1 KB records against 15 x 32 GB machines so
    that per-node data is cache-resident around RF = 3 and spills to disk
    beyond it.  This helper preserves that ratio at any scaled-down
    population: the block cache covers ``cache_units`` x one
    replication-unit of data per server (default ~3.2, putting the
    disk-spill knee just past RF = 3), and the memtable flushes at half a
    unit so SSTables exist from RF = 1 on.
    """
    unit = max(1, record_count * record_bytes // max(1, n_servers))
    return StorageSpec(
        memtable_flush_bytes=max(256 * 1024, unit // 2),
        block_bytes=8 * 1024,
        block_cache_bytes=max(1024 * 1024, int(unit * cache_units)),
    )


def disk_exposed_storage(db: str, record_count: int, n_servers: int,
                         cache_fraction: float) -> StorageSpec:
    """Storage tuning that keeps a campaign's reads disk-exposed.

    The stress default (:func:`scaled_stress_storage`) makes RF = 3
    cache-resident, which would hide a slow *disk* or a service ceiling
    entirely; here the block cache covers ``cache_fraction`` of one
    storage tree's resident data, so a steady fraction of reads misses
    to the spindle.  The tree sizes differ per engine (at the campaigns'
    RF 3 and default two regions per server): a Cassandra node's single
    tree holds RF x (data / nodes), while an HBase region's tree holds
    data / (nodes x regions).
    """
    data = record_count * 1000
    if db == "cassandra":
        per_tree = data * 3 // max(1, n_servers)
    else:
        per_tree = data // max(1, n_servers * 2)
    return StorageSpec(
        memtable_flush_bytes=max(32 * 1024, per_tree // 8),
        block_bytes=8 * 1024,
        block_cache_bytes=max(64 * 1024, int(per_tree * cache_fraction)),
    )


def default_surge_config(db: str, arrivals: ArrivalConfig,
                         clienttier: ClientTierConfig, record_count: int,
                         n_nodes: int, seed: int) -> ExperimentConfig:
    """One flash-crowd survival cell (``repro-bench surge``).

    A read-mostly zipfian mix (the profile a cache-aside tier can help)
    on a small cluster, with the server block cache squeezed far below
    the tail campaign's: even much of the zipfian hot set misses to
    disk, so the cluster has a hard, low service ceiling for a flash
    crowd to collapse onto — and a client-side cache something real to
    absorb.  ``operation_count`` only sizes the closed-loop warm-up;
    measured runs draw their length from ``arrivals.max_arrivals``.
    """
    return ExperimentConfig(
        engine=engine_config(db),
        workload=STRESS_WORKLOADS["read_mostly"],
        record_count=record_count,
        operation_count=max(1_000, arrivals.max_arrivals // 4),
        n_threads=16,
        n_nodes=n_nodes,
        seed=seed,
        # Both engines are sized from the Cassandra-shaped tree (RF x
        # data / nodes): the campaign was calibrated on one service
        # ceiling, with ~10% of that tree cached.
        storage=disk_exposed_storage("cassandra", record_count,
                                     n_nodes - 1, 0.10),
        clienttier=clienttier,
        arrivals=arrivals,
    )


def default_scale_config(db: str, elasticity: ElasticityConfig,
                         arrivals: ArrivalConfig, record_count: int,
                         n_nodes: int, seed: int) -> ExperimentConfig:
    """One elasticity cell (``repro-bench scale``).

    The surge cell's read-mostly open-loop mix, with no client tier, on
    a small cluster whose *serving* set is ``n_nodes - 1 - SPARE_NODES``
    servers: the spares sit provisioned but idle until a scale-out
    bootstraps (Cassandra) or activates (HBase) them.  Storage is sized
    to the serving set, so the initial members run close to their cache
    ceiling and added capacity is visible in the latency profile — which
    is what the autoscaler's breach/relax thresholds key on.
    """
    serving = n_nodes - 1 - SPARE_NODES
    return replace(
        default_surge_config(db, arrivals, ClientTierConfig(), record_count,
                             n_nodes, seed),
        # Cache ~60% of a serving member's tree: the knee sits just
        # past the base rate, so the peak of a diurnal cycle (or a
        # flash crowd) pushes the initial members over it while the
        # widened ring after a scale-out is comfortable again.
        storage=disk_exposed_storage(db, record_count, serving, 0.6),
        elasticity=elasticity)


def default_stress_config(db: str, workload_name: str = "read_mostly",
                          replication: int = 3,
                          target_throughput: Optional[float] = None,
                          seed: int = 42) -> ExperimentConfig:
    """The paper's stress benchmark, scaled down (1 KB records)."""
    if workload_name not in STRESS_WORKLOADS:
        raise ValueError(f"unknown stress workload {workload_name!r}; "
                         f"choose from {sorted(STRESS_WORKLOADS)}")
    return ExperimentConfig(
        engine=engine_config(db, replication=replication),
        workload=STRESS_WORKLOADS[workload_name],
        record_count=40_000,
        operation_count=6_000,
        n_threads=48,
        target_throughput=target_throughput,
        seed=seed,
        storage=scaled_stress_storage(40_000, 1000, 15),
    )
