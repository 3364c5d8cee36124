"""Experiment configuration: one object per benchmark cell."""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.elasticity import ElasticityConfig, ScaleEventSpec
from repro.cluster.failure import FaultSpec
from repro.energy.cost import CostSpec
from repro.energy.power import POWER_MODES, PowerSpec
from repro.storage.lsm import StorageSpec
from repro.ycsb.workload import MICRO_WORKLOADS, STRESS_WORKLOADS, WorkloadSpec

__all__ = [
    "AdaptiveConfig",
    "ArrivalConfig",
    "CassandraConfig",
    "ClientTierConfig",
    "ElasticityConfig",
    "EnergyConfig",
    "ExperimentConfig",
    "GeoConfig",
    "HBaseConfig",
    "ScaleEventSpec",
    "TailDefenseConfig",
    "config_to_dict",
    "config_to_json",
    "default_geo_config",
    "default_micro_config",
    "default_scale_config",
    "default_stress_config",
    "default_surge_config",
    "disk_exposed_storage",
]


@dataclass(frozen=True)
class TailDefenseConfig:
    """Tail-latency defense knobs, shared by both database models.

    The all-defaults instance is a no-op (no deadline, no hedging,
    unbounded queues) — the pre-defense behaviour every other sweep runs
    with.
    """

    #: End-to-end per-operation budget in seconds (covers client
    #: retries); the absolute deadline rides every RPC so replica-side
    #: work is abandoned once the budget is spent.  ``None`` = off.
    deadline_s: Optional[float] = None
    #: Speculative retry (hedged reads): ``"NNms"`` fixed delay or
    #: ``"pNN"`` latency percentile.  ``None`` = off.
    hedge: Optional[str] = None
    #: Concurrent server-side handler executions per node; only enforced
    #: when ``max_handler_queue`` is set.
    handler_slots: int = 16
    #: Bounded server-side queue depth — beyond it requests are shed
    #: with an explicit ``Overloaded`` error.  ``None`` = unbounded.
    max_handler_queue: Optional[int] = None
    #: Coordinator admission control (Cassandra): max in-flight
    #: coordinated ops per node.  ``None`` = unlimited.
    max_inflight: Optional[int] = None


@dataclass(frozen=True)
class ClientTierConfig:
    """Resilient client-tier knobs (see :mod:`repro.clienttier`).

    The all-defaults instance is inert: no retries, no breaker, no rate
    limiter, no leveler, no cache — the raw driver behaviour every
    closed-loop sweep keeps.  Only consulted when a run goes through
    the open-loop client (:attr:`repro.core.runner.RunSpec.open_loop`).
    """

    #: Extra client-tier attempts per operation (0 = the tier's retry
    #: layer is off; the drivers' own internal retries still apply).
    retries: int = 0
    retry_backoff_s: float = 0.05
    #: Retry-budget earn ratio (Finagle-style): each first attempt earns
    #: this fraction of a retry token.  ``None`` = uncapped retries —
    #: the naive client whose amplification the surge campaign measures.
    retry_budget_ratio: Optional[float] = None
    #: Circuit breaker trip threshold (failure fraction in the sliding
    #: window).  ``None`` = no breaker.
    breaker_failure_rate: Optional[float] = None
    breaker_cooldown_s: float = 1.0
    #: Per-tenant admission rate (requests/s).  ``None`` = no limiter.
    rate_limit_per_tenant: Optional[float] = None
    rate_limit_burst: float = 10.0
    #: Fixed worker-pool size for queue-based load leveling.  ``None`` =
    #: spawn one in-flight operation per arrival (unbounded concurrency).
    leveling_workers: Optional[int] = None
    leveling_queue: int = 64
    #: Cache-aside read-cache TTL (the declared staleness budget the
    #: oracle prices).  ``None`` = no cache.
    cache_ttl_s: Optional[float] = None
    cache_capacity: int = 1024
    #: Override the driver's per-operation timeout (both engines) so an
    #: overloaded store fails fast enough for client-side defenses to
    #: react within a short campaign.  ``None`` = driver defaults.
    op_timeout_s: Optional[float] = None


@dataclass(frozen=True)
class ArrivalConfig:
    """Open-loop arrival stream for one measured run
    (see :mod:`repro.ycsb.arrivals`)."""

    #: "poisson", "diurnal" or "flash_crowd".
    process: str = "poisson"
    #: Steady (base) arrival rate, requests/s.
    rate: float = 1_000.0
    #: How many arrivals one measured run dispatches.
    max_arrivals: int = 10_000
    #: Simulated-user population behind the arrivals (zipf-skewed).
    n_users: int = 100_000
    #: Tenants the users map onto (the rate limiter's metering unit).
    n_tenants: int = 8
    # Diurnal shape.
    period_s: float = 60.0
    peak_factor: float = 2.0
    # Flash-crowd shape.
    spike_at_s: float = 5.0
    spike_factor: float = 10.0
    spike_duration_s: float = 5.0

    def __post_init__(self) -> None:
        processes = ("poisson", "diurnal", "flash_crowd")
        if self.process not in processes:
            raise ValueError(f"unknown arrival process {self.process!r}; "
                             f"choose from {processes}")
        if self.rate <= 0:
            raise ValueError(f"ArrivalConfig.rate={self.rate}: must be > 0")
        if self.max_arrivals < 1:
            raise ValueError(f"ArrivalConfig.max_arrivals="
                             f"{self.max_arrivals}: must be >= 1")


@dataclass(frozen=True)
class AdaptiveConfig:
    """The declared SLO an adaptive-consistency run steers by
    (see :mod:`repro.adaptive`): "p95 read latency <= ``p95_ms`` AND
    staleness <= ``staleness_s`` / exposed-read rate <= ``risk_rate``".

    Only consulted when a run asks for a policy
    (:attr:`repro.core.runner.RunSpec.adaptive`); otherwise inert.
    """

    #: Latency half of the SLO: per-window p95 read latency bound (ms).
    p95_ms: float = 10.0
    #: Staleness half: the declared freshness bound S (seconds) — keys
    #: written more recently than this are "at risk" for weak reads.
    staleness_s: float = 0.25
    #: Tolerated fraction of a window's reads that may be exposed to
    #: staleness risk (at-risk key served at a weak CL).
    risk_rate: float = 0.01
    #: Monitoring window length (simulated seconds).
    window_s: float = 0.5
    #: StepwisePolicy hysteresis: clean windows before decaying a level.
    decay_windows: int = 3


@dataclass(frozen=True)
class EnergyConfig:
    """Power/cost model for one cell (see :mod:`repro.energy`).

    The all-defaults instance is inert: every node stays always-on, no
    wake latency anywhere, and the meter prices exactly the historical
    utilization integral.  ``power_mode`` arms power management:

    - ``"race_to_sleep"`` — every server parks unconditionally after
      its idle threshold (DVFS P-state, then deep sleep), paying
      deterministic wake latency when work arrives;
    - ``"policy"`` — servers start always-on and an
      :class:`repro.adaptive.policy.EnergyAwarePolicy` parks/unparks
      them per monitoring window (requires ``RunSpec.adaptive =
      "energy-aware"``).
    """

    power_mode: str = "always_on"
    #: Wattages and power-state thresholds (defaults: the testbed's).
    power: PowerSpec = field(default_factory=PowerSpec)
    #: $/kWh and $/instance-hour the meter's joules are priced at.
    cost: CostSpec = field(default_factory=CostSpec)

    def __post_init__(self) -> None:
        if self.power_mode not in POWER_MODES + ("policy",):
            raise ValueError(
                f"unknown power mode {self.power_mode!r}; choose from "
                f"{POWER_MODES + ('policy',)}")


@dataclass(frozen=True)
class HBaseConfig:
    """HBase-side knobs (see :class:`repro.hbase.deployment.HBaseSpec`)."""

    replication: int = 3
    regions_per_server: int = 2
    wal_sync: bool = False


@dataclass(frozen=True)
class CassandraConfig:
    """Cassandra-side knobs (see :class:`repro.cassandra.deployment.CassandraSpec`)."""

    replication: int = 3
    read_cl: ConsistencyLevel = ConsistencyLevel.ONE
    write_cl: ConsistencyLevel = ConsistencyLevel.ONE
    read_repair_chance: float = 0.1
    blocking_read_repair: bool = True
    #: How often each coordinator's hint replayer wakes (seconds).  A
    #: larger interval models throttled hinted handoff: a restarted
    #: replica stays stale for up to one interval, which is the window
    #: the adaptive-consistency campaigns study.
    hint_replay_interval_s: float = 1.0


@dataclass(frozen=True)
class GeoConfig:
    """Multi-datacenter deployment description for one cell.

    JSON-safe mirror of :class:`repro.cluster.geo.GeoSpec`: dict-like
    fields are ``(key, value)`` pair tuples and the WAN latency matrix
    is ``(dc_a, dc_b, one_way_s)`` triples, so the whole config hashes
    into the cell-cache fingerprint unchanged.  Cassandra-only — the
    geo campaign exercises per-DC replica placement and the DC-aware
    consistency levels, which are Cassandra concepts.
    """

    #: ``(datacenter, server_count)`` pairs, in node-id order.
    datacenters: tuple = (("eu-west", 3), ("us-west", 3),
                          ("ap-southeast", 3))
    #: Which datacenters host a client node (one per region, appended
    #: after the servers in this order); runs pick their region via
    #: ``RunSpec.client_dc``.
    client_datacenters: tuple = ("eu-west", "us-west", "ap-southeast")
    #: ``(datacenter, replicas)`` pairs (NetworkTopologyStrategy).
    replication_per_dc: tuple = (("eu-west", 3), ("us-west", 3),
                                 ("ap-southeast", 3))
    #: One-way cross-DC latencies as ``(dc_a, dc_b, seconds)`` triples
    #: (defaults mirror :data:`repro.cluster.geo.DEFAULT_REGION_RTTS`).
    region_rtt_s: tuple = (("eu-west", "us-west", 0.075),
                           ("eu-west", "ap-southeast", 0.090),
                           ("us-west", "ap-southeast", 0.085))
    #: Inter-DC usable bandwidth per flow (bytes/s).
    wan_bandwidth_bps: float = 30e6

    def __post_init__(self) -> None:
        names = [dc for dc, _ in self.datacenters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate datacenters in {names}")
        counts = dict(self.datacenters)
        for dc in self.client_datacenters:
            if dc not in counts:
                raise ValueError(f"client datacenter {dc!r} is not a "
                                 f"configured datacenter")
        for dc, rf in self.replication_per_dc:
            if dc not in counts:
                raise ValueError(f"replication configured for unknown "
                                 f"datacenter {dc!r}")
            if rf > counts[dc]:
                raise ValueError(f"datacenter {dc!r} has {counts[dc]} "
                                 f"servers but replication {rf} requested")
        covered = {frozenset({a, b}) for a, b, _ in self.region_rtt_s}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if frozenset({a, b}) not in covered:
                    raise ValueError(f"no WAN latency configured between "
                                     f"{a!r} and {b!r}")

    @property
    def total_nodes(self) -> int:
        """Servers plus one client node per client datacenter."""
        return (sum(count for _, count in self.datacenters)
                + len(self.client_datacenters))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one benchmark cell reproducibly."""

    #: "hbase" or "cassandra".
    db: str
    workload: WorkloadSpec
    record_count: int
    operation_count: int
    n_threads: int = 16
    #: Offered load cap, ops/s (None = full speed).
    target_throughput: Optional[float] = None
    warmup_fraction: float = 0.1
    #: Machines including the client node (paper: 16).
    n_nodes: int = 16
    seed: int = 42
    #: Simulated seconds to let background work settle after loading.
    settle_s: float = 5.0
    load_threads: int = 32
    hbase: HBaseConfig = field(default_factory=HBaseConfig)
    cassandra: CassandraConfig = field(default_factory=CassandraConfig)
    storage: StorageSpec = field(default_factory=StorageSpec)
    #: Tail-latency defenses (deadline propagation, hedged reads,
    #: bounded queues + shedding).  Defaults to all-off.
    tail: TailDefenseConfig = field(default_factory=TailDefenseConfig)
    #: Adaptive-consistency SLO (only consulted when a run names a
    #: policy via ``RunSpec.adaptive``).
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    #: Resilient client tier (breaker / retry budget / rate limiter /
    #: leveling / cache-aside); inert by default, consulted by open-loop
    #: runs (``RunSpec.open_loop``).
    clienttier: ClientTierConfig = field(default_factory=ClientTierConfig)
    #: Power/cost model (joules/op and $/Mops on every report);
    #: defaults to always-on with the standard testbed wattages.
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    #: Open-loop arrival stream for ``RunSpec.open_loop`` runs.  ``None``
    #: means the cell is closed-loop only.
    arrivals: Optional[ArrivalConfig] = None
    #: Declarative fault schedule for this cell (``at_s`` relative to the
    #: start of each measured run).  Only armed when the caller runs the
    #: cell with fault injection enabled, so the same config can serve
    #: both a healthy baseline and a chaos campaign.
    faults: tuple[FaultSpec, ...] = ()
    #: Multi-datacenter deployment (Cassandra only).  ``None`` = the
    #: usual single-rack cluster.  When set, ``n_nodes`` must equal
    #: ``geo.total_nodes`` so the cell fingerprint stays honest.
    geo: Optional[GeoConfig] = None
    #: Elasticity plan (``repro-bench scale``): provisions
    #: ``elasticity.spare_nodes`` trailing servers outside the serving
    #: set and describes how (if at all) a run scales the cluster.
    #: ``None`` = the usual fixed-size deployment.  Only armed when the
    #: caller runs the cell with scaling enabled, so one config serves
    #: both the static control and the elastic runs.
    elasticity: Optional[ElasticityConfig] = None

    def __post_init__(self) -> None:
        if self.db not in ("hbase", "cassandra"):
            raise ValueError(f"unknown db {self.db!r}")
        for name in ("record_count", "operation_count"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"ExperimentConfig.{name}={value}: "
                                 f"must be >= 1")
        if self.n_nodes < 2:
            raise ValueError(f"ExperimentConfig.n_nodes={self.n_nodes}: "
                             f"need at least one server node plus the "
                             f"client (>= 2)")
        if self.elasticity is not None:
            if self.geo is not None:
                raise ValueError("elasticity and geo are mutually "
                                 "exclusive (scaling is single-ring)")
            # n_nodes - 1 servers; spares must leave one in service.
            if self.elasticity.spare_nodes >= self.n_nodes - 1:
                raise ValueError(
                    f"elasticity.spare_nodes={self.elasticity.spare_nodes} "
                    f"must leave at least one in-service server "
                    f"(n_nodes={self.n_nodes} has {self.n_nodes - 1} servers)")
        if self.geo is not None:
            if self.db != "cassandra":
                raise ValueError("geo deployments support Cassandra only "
                                 "(per-DC placement and LOCAL_*/EACH_QUORUM "
                                 "are Cassandra concepts)")
            if self.n_nodes != self.geo.total_nodes:
                raise ValueError(
                    f"n_nodes={self.n_nodes} does not match the geo "
                    f"layout's {self.geo.total_nodes} nodes "
                    f"(servers + one client per client datacenter)")

    @property
    def replication(self) -> int:
        return (self.hbase.replication if self.db == "hbase"
                else self.cassandra.replication)

    def with_replication(self, replication: int) -> "ExperimentConfig":
        """A copy of this config at a different replication factor."""
        return replace(
            self,
            hbase=replace(self.hbase, replication=replication),
            cassandra=replace(self.cassandra, replication=replication))


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
    simulations (given equal code).
    """
    return _jsonify(asdict(config))


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
    config = ExperimentConfig(
        db=db,
        workload=MICRO_WORKLOADS[micro_op],
        record_count=30_000,
        operation_count=4_000,
        n_threads=8,
        target_throughput=None,
        seed=seed,
        storage=MICRO_STORAGE,
        hbase=HBaseConfig(regions_per_server=1),
    )
    return config.with_replication(replication)


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


def default_geo_config(read_cl: ConsistencyLevel = ConsistencyLevel.LOCAL_QUORUM,
                       write_cl: ConsistencyLevel = ConsistencyLevel.LOCAL_QUORUM,
                       servers_per_dc: int = 3,
                       replicas_per_dc: int = 3,
                       record_count: int = 3_000,
                       operation_count: int = 6_000,
                       n_threads: int = 16,
                       target_throughput: Optional[float] = 1_200.0,
                       seed: int = 42,
                       no_repair: bool = False,
                       hint_replay_interval_s: float = 1.0,
                       faults: tuple = ()) -> ExperimentConfig:
    """One geo-replication cell: the default three regions (EU, US-West,
    Singapore), ``servers_per_dc`` Cassandra servers and one client node
    per region, NetworkTopologyStrategy with ``replicas_per_dc``.

    ``no_repair`` disables read repair (and is typically paired with a
    long ``hint_replay_interval_s``) so LOCAL_ONE's staleness window
    stays open for the oracle to observe.
    """
    regions = ("eu-west", "us-west", "ap-southeast")
    geo = GeoConfig(
        datacenters=tuple((dc, servers_per_dc) for dc in regions),
        client_datacenters=regions,
        replication_per_dc=tuple((dc, replicas_per_dc) for dc in regions))
    return ExperimentConfig(
        db="cassandra",
        workload=STRESS_WORKLOADS["read_update"],
        record_count=record_count,
        operation_count=operation_count,
        n_threads=n_threads,
        target_throughput=target_throughput,
        n_nodes=geo.total_nodes,
        seed=seed,
        storage=scaled_stress_storage(record_count, 1000,
                                      servers_per_dc * len(regions)),
        cassandra=CassandraConfig(
            read_cl=read_cl, write_cl=write_cl,
            read_repair_chance=0.0 if no_repair else 0.1,
            blocking_read_repair=not no_repair,
            hint_replay_interval_s=hint_replay_interval_s),
        geo=geo,
        faults=tuple(faults),
    )


def default_surge_config(db: str,
                         arrivals: Optional[ArrivalConfig] = None,
                         clienttier: Optional[ClientTierConfig] = None,
                         record_count: int = 4_000,
                         n_nodes: int = 8,
                         seed: int = 42) -> ExperimentConfig:
    """One flash-crowd survival cell (``repro-bench surge``).

    A read-mostly zipfian mix (the profile a cache-aside tier can help)
    on a small cluster, with the server block cache squeezed far below
    the tail campaign's: even much of the zipfian hot set misses to
    disk, so the cluster has a hard, low service ceiling for a flash
    crowd to collapse onto — and a client-side cache something real to
    absorb.  ``operation_count`` only sizes the closed-loop warm-up;
    measured runs draw their length from ``arrivals.max_arrivals``.
    """
    arrivals = arrivals or ArrivalConfig()
    return ExperimentConfig(
        db=db,
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
        clienttier=clienttier or ClientTierConfig(),
        arrivals=arrivals,
    )


def default_scale_config(db: str,
                         elasticity: Optional[ElasticityConfig] = None,
                         arrivals: Optional[ArrivalConfig] = None,
                         record_count: int = 3_000,
                         n_nodes: int = 8,
                         seed: int = 42) -> ExperimentConfig:
    """One elasticity cell (``repro-bench scale``).

    A read-mostly open-loop cell on a small cluster whose *serving* set
    is ``n_nodes - 1 - spare_nodes`` servers: the spares sit provisioned
    but idle until a scale-out bootstraps (Cassandra) or activates
    (HBase) them.  Storage is sized to the serving set, so the initial
    members run close to their cache ceiling and added capacity is
    visible in the latency profile — which is what the autoscaler's
    breach/relax thresholds key on.
    """
    elasticity = elasticity or ElasticityConfig()
    arrivals = arrivals or ArrivalConfig(process="diurnal", rate=800.0,
                                         max_arrivals=8_000, period_s=20.0,
                                         peak_factor=3.0)
    serving = n_nodes - 1 - elasticity.spare_nodes
    if serving < 1:
        raise ValueError("spare_nodes must leave at least one server")
    return ExperimentConfig(
        db=db,
        workload=STRESS_WORKLOADS["read_mostly"],
        record_count=record_count,
        operation_count=max(1_000, arrivals.max_arrivals // 4),
        n_threads=16,
        n_nodes=n_nodes,
        seed=seed,
        # Cache ~60% of a serving member's tree: the knee sits just
        # past the base rate, so the peak of a diurnal cycle (or a
        # flash crowd) pushes the initial members over it while the
        # widened ring after a scale-out is comfortable again.
        storage=disk_exposed_storage(db, record_count, serving, 0.6),
        arrivals=arrivals,
        elasticity=elasticity,
    )


def default_stress_config(db: str, workload_name: str = "read_mostly",
                          replication: int = 3,
                          target_throughput: Optional[float] = None,
                          seed: int = 42) -> ExperimentConfig:
    """The paper's stress benchmark, scaled down (1 KB records)."""
    if workload_name not in STRESS_WORKLOADS:
        raise ValueError(f"unknown stress workload {workload_name!r}; "
                         f"choose from {sorted(STRESS_WORKLOADS)}")
    config = ExperimentConfig(
        db=db,
        workload=STRESS_WORKLOADS[workload_name],
        record_count=40_000,
        operation_count=6_000,
        n_threads=48,
        target_throughput=target_throughput,
        seed=seed,
        storage=scaled_stress_storage(40_000, 1000, 15),
    )
    return config.with_replication(replication)
