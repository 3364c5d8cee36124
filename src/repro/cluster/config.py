"""The records a cell's cluster ingredients take: a fault
(:class:`FaultSpec`), a multi-datacenter layout (:class:`GeoConfig`) and
an elasticity plan (:class:`ElasticityConfig`), with the legal values
the campaign table reads (:data:`FAULT_KINDS`, :data:`SCALE_MODES`).

They live apart from the machinery that arms them —
:mod:`repro.cluster.failure`, :mod:`repro.cluster.geo` and
:mod:`repro.cluster.elasticity` — so that a cell's config
(:mod:`repro.core.config`) and the campaign table can name them without
compiling it; only a session whose config carries one imports its
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["DC_FAULT_KINDS", "DEFAULT_REGION_RTTS", "ElasticityConfig",
           "FAULT_ACTIONS", "FAULT_KINDS", "FLAP_CYCLES", "FLAP_UP_S",
           "FaultSpec", "GeoConfig", "SCALE_MODES", "SEVERITY_KINDS",
           "SPARE_NODES"]


# -- faults (armed by repro.cluster.failure) ------------------------------

#: kind -> (degrade action, heal action): what the injector logs when a
#: fault of that kind hits a target and when it lets the target go.
FAULT_ACTIONS = {
    "crash": ("crash", "restart"),
    "flap": ("crash", "restart"),
    "partition": ("partition", "heal"),
    "slow_nic": ("nic_degrade", "nic_heal"),
    "slow_disk": ("disk_degrade", "disk_heal"),
    "dc_partition": ("dc_partition", "dc_heal"),
    "wan_degrade": ("wan_degrade", "wan_heal"),
    "dc_slow_nic": ("nic_degrade", "nic_heal"),
}

#: The declarative fault kinds a :class:`FaultSpec` can name.
FAULT_KINDS = tuple(FAULT_ACTIONS)

#: The kinds that target a datacenter (or the WAN fabric) rather than a
#: node id; they require a geo cluster.
DC_FAULT_KINDS = ("dc_partition", "wan_degrade", "dc_slow_nic")

#: The kinds whose ``severity`` is a service-time multiplier.
SEVERITY_KINDS = ("slow_nic", "slow_disk", "wan_degrade", "dc_slow_nic")

#: A flap's down/up rounds, and the uptime between its down periods.
FLAP_CYCLES = 3
FLAP_UP_S = 1.0


@dataclass(frozen=True)
class FaultSpec:
    """One fault, JSON-safe, carried by an ``ExperimentConfig``.

    ``at_s`` is relative to the base time the injector arms it at (the
    simulation time at which the measured run begins), so the same spec
    is reusable across cells and is part of the cell-cache fingerprint.
    """

    kind: str = "crash"
    node_id: int = 0
    at_s: float = 4.0
    #: Fault duration.  crash/partition/slow_*: how long the fault lasts
    #: (None = never cleared).  flap: the *per-cycle* downtime (None =
    #: 1 s) of each of its :data:`FLAP_CYCLES` rounds, :data:`FLAP_UP_S`
    #: apart.
    duration_s: Optional[float] = 10.0
    #: slow_nic / slow_disk / dc_slow_nic / wan_degrade: multiplier.
    severity: float = 8.0
    #: partition only: how many consecutive node ids (from ``node_id``)
    #: land on the minority side of the split.
    span: int = 2
    #: dc_partition / dc_slow_nic only: which datacenter the fault hits.
    datacenter: Optional[str] = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if kind in ("dc_partition", "dc_slow_nic") \
                and self.datacenter is None:
            raise ValueError(f"fault kind {kind!r} needs a datacenter")
        if kind in SEVERITY_KINDS and self.severity < 1.0:
            raise ValueError(f"FaultSpec.severity must be >= 1 for kind "
                             f"{kind!r}, got {self.severity!r}")
        if self.at_s < 0:
            raise ValueError(f"FaultSpec.at_s={self.at_s!r}: must be >= 0")
        if self.duration_s is not None and not self.duration_s > 0:
            raise ValueError(f"FaultSpec.duration_s={self.duration_s!r}: "
                             f"must be None (never cleared) or > 0")
        if kind == "partition" and self.span < 1:
            raise ValueError(f"FaultSpec.span must be >= 1 for kind "
                             f"'partition', got {self.span!r}")

    def node_ids(self) -> tuple[int, ...]:
        """The nodes a node-scoped kind hits; ``()`` for the datacenter
        kinds, whose servers resolve when the fault fires and heals."""
        if self.kind in DC_FAULT_KINDS:
            return ()
        if self.kind == "partition":
            return tuple(range(self.node_id, self.node_id + self.span))
        return (self.node_id,)

    @property
    def hold_s(self) -> Optional[float]:
        """How long each round stays degraded (None = never healed)."""
        if self.kind == "flap" and self.duration_s is None:
            return 1.0
        return self.duration_s

    def window(self, base_s: float = 0.0) -> tuple[float, float]:
        """``(start, end)`` of the fault when armed at ``base_s``."""
        at = base_s + self.at_s
        if self.kind == "flap":
            return (at, at + FLAP_CYCLES * (self.hold_s + FLAP_UP_S))
        if self.duration_s is None:
            return (at, float("inf"))
        return (at, at + self.duration_s)


# -- the geo layout (built by repro.cluster.geo) ---------------------------

#: One-way latencies (seconds) between the example regions, roughly the
#: public round-trip figures halved: EU <-> US-West ~ 150 ms RTT,
#: EU <-> Singapore ~ 180 ms, US-West <-> Singapore ~ 170 ms.
DEFAULT_REGION_RTTS: dict[frozenset, float] = {
    frozenset({"eu-west", "us-west"}): 0.075,
    frozenset({"eu-west", "ap-southeast"}): 0.090,
    frozenset({"us-west", "ap-southeast"}): 0.085,
}


@dataclass(frozen=True)
class GeoConfig:
    """A multi-datacenter deployment: the one record a
    :class:`~repro.cluster.geo.GeoCluster` and the cell that runs on it
    share.

    Dict-like fields are ``(key, value)`` pair tuples, so the record
    hashes into the cell-cache fingerprint as it is.  The rest of the
    layout is fixed: the WAN latencies are :data:`DEFAULT_REGION_RTTS`,
    the in-datacenter hop :data:`~repro.cluster.geo.LOCAL_LATENCY_S`, the
    WAN bandwidth :data:`~repro.cluster.geo.WAN_BANDWIDTH_BPS`, every
    node the default :class:`~repro.cluster.node.NodeSpec`, and every
    datacenter hosts one client node (appended after the servers, in
    datacenter order; runs pick their region via ``RunSpec.client_dc``).
    Cassandra-only — the geo campaign exercises per-DC replica placement
    and the DC-aware consistency levels, which are Cassandra concepts.
    """

    #: ``(datacenter, server_count)`` pairs, in node-id order.
    datacenters: tuple = (("eu-west", 3), ("us-west", 3),
                          ("ap-southeast", 3))
    #: ``(datacenter, replicas)`` pairs (NetworkTopologyStrategy).
    replication_per_dc: tuple = (("eu-west", 3), ("us-west", 3),
                                 ("ap-southeast", 3))

    def __post_init__(self) -> None:
        names = [dc for dc, _ in self.datacenters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate datacenters in {names}")
        legal = sorted(set().union(*DEFAULT_REGION_RTTS))
        for dc, count in self.datacenters:
            if dc not in legal:
                raise ValueError(f"GeoConfig.datacenters: {dc!r} has no WAN "
                                 f"latencies; choose from {legal}")
            if count < 1:
                raise ValueError(f"GeoConfig.datacenters: {dc!r} has "
                                 f"{count} servers; must be >= 1")
        counts = dict(self.datacenters)
        seen = set()
        for dc, rf in self.replication_per_dc:
            if dc not in counts:
                raise ValueError(f"GeoConfig.replication_per_dc: replication "
                                 f"configured for unknown datacenter "
                                 f"{dc!r}")
            if dc in seen:
                raise ValueError(f"GeoConfig.replication_per_dc: {dc!r} is "
                                 f"listed twice")
            seen.add(dc)
            if rf < 0:
                raise ValueError(f"GeoConfig.replication_per_dc: {dc!r} has "
                                 f"replication {rf}; must be >= 0")
            if rf > counts[dc]:
                raise ValueError(f"GeoConfig.replication_per_dc: datacenter "
                                 f"{dc!r} has {counts[dc]} servers but "
                                 f"replication {rf} requested")

    @property
    def total_nodes(self) -> int:
        """Servers plus one client node per datacenter."""
        return (sum(count for _, count in self.datacenters)
                + len(self.datacenters))


# -- elasticity (armed by repro.cluster.elasticity) ------------------------

#: Who scales a run: nobody (the control), the operator's schedule, or
#: the p95-driven autoscaler.
SCALE_MODES = ("static", "manual", "auto")

#: Trailing server nodes an elastic cell provisions outside the serving
#: set at build time — the pool scale-out draws from.
SPARE_NODES = 1


@dataclass(frozen=True)
class ElasticityConfig:
    """JSON-safe elasticity plan carried by an ExperimentConfig: who
    decides to scale, when the operator does, and how long the
    autoscaler waits between actions.  The spare pool is
    :data:`SPARE_NODES`; the autoscaler's window, thresholds and streaks
    are :mod:`repro.cluster.elasticity`'s constants."""

    #: "static" (control), "manual" (event schedule) or "auto"
    #: (p95-driven policy loop).
    mode: str = "manual"
    #: Manual mode's schedule: the instants, relative to the measured
    #: run's start, at which one spare node scales out.
    events: tuple[float, ...] = (2.0,)
    #: Minimum time between two autoscaler actions (covers the
    #: streaming window).
    cooldown_s: float = 8.0

    def __post_init__(self) -> None:
        if self.mode not in SCALE_MODES:
            raise ValueError(f"unknown elasticity mode {self.mode!r}; "
                             f"choose from {SCALE_MODES}")
        for at_s in self.events:
            if at_s < 0:
                raise ValueError(f"ElasticityConfig.events: at_s={at_s} "
                                 f"must be >= 0")
        if self.cooldown_s < 0:
            raise ValueError(f"ElasticityConfig.cooldown_s="
                             f"{self.cooldown_s}: must be >= 0")
