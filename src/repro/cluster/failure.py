"""Fault injection: declarative schedules of composable fault types.

The paper's related-work section (Pokluda et al.) benchmarks failover by
killing a node mid-run and watching latency/throughput.  This module
generalizes that probe into first-class fault-injection campaigns: a
:class:`FaultSchedule` composes crash/restart, node flapping, network
partitions (the single-rack analogue of
:meth:`repro.cluster.geo.GeoCluster.partition_datacenter`), NIC
degradation (packet loss / latency, modelled as an effective-bandwidth
multiplier) and slow-disk gray failures (a throttled
:class:`~repro.cluster.disk.Disk` service-time multiplier).

The :class:`FailureInjector` executes a schedule against a
:class:`~repro.cluster.topology.Cluster` and records what actually
happened — including *no-op* entries when a fault fires against a node
already in the requested state — so availability reports
(:mod:`repro.core.failover`) can reconstruct the degraded window exactly.

Schedules are validated before anything is armed: unknown node ids,
unknown datacenters and overlapping fault windows on the same target are
rejected with :class:`UnknownFaultTargetError` / :class:`ValueError` —
a fault can never silently no-op its way through a run because its
target does not exist.

Geo campaigns add datacenter-scoped kinds: ``dc_partition`` cuts every
*server* in one datacenter off the fabric (region clients stay up and
observe the outage honestly), ``wan_degrade`` stretches every cross-DC
link by a multiplier (see :meth:`repro.cluster.geo.GeoCluster.degrade_wan`)
and ``dc_slow_nic`` degrades the NICs of one datacenter's servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Sequence

from repro.cluster.topology import Cluster

__all__ = [
    "FAULT_KINDS",
    "CrashFault",
    "DcPartitionFault",
    "DcSlowNicFault",
    "DiskDegradeFault",
    "FailureInjector",
    "FaultSchedule",
    "FaultSpec",
    "FlapFault",
    "NicDegradeFault",
    "PartitionFault",
    "UnknownFaultTargetError",
    "WanDegradeFault",
]

#: The declarative fault kinds a :class:`FaultSpec` can name.
FAULT_KINDS = ("crash", "flap", "partition", "slow_nic", "slow_disk",
               "dc_partition", "wan_degrade", "dc_slow_nic")

#: The kinds that target a datacenter (or the WAN fabric) rather than a
#: node id; they require a geo cluster.
DC_FAULT_KINDS = ("dc_partition", "wan_degrade", "dc_slow_nic")


class UnknownFaultTargetError(ValueError):
    """A fault names a node id or datacenter the cluster does not have."""


# -- concrete fault types --------------------------------------------------

@dataclass(frozen=True)
class CrashFault:
    """Node ``node_id`` dies at ``at_s`` for ``down_s`` (None = forever)."""

    node_id: int
    at_s: float
    #: How long the node stays down; ``None`` means it never restarts.
    down_s: Optional[float] = None

    def targets(self) -> tuple[int, ...]:
        return (self.node_id,)

    def window(self) -> tuple[float, float]:
        end = float("inf") if self.down_s is None else self.at_s + self.down_s
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        injector._kill(self.node_id, "crash")
        if self.down_s is not None:
            yield env.timeout(self.down_s)
            injector._revive(self.node_id, "restart")


@dataclass(frozen=True)
class FlapFault:
    """Node flapping: ``cycles`` rounds of (down ``down_s``, up ``up_s``)."""

    node_id: int
    at_s: float
    cycles: int = 3
    down_s: float = 1.0
    up_s: float = 1.0

    def targets(self) -> tuple[int, ...]:
        return (self.node_id,)

    def window(self) -> tuple[float, float]:
        return (self.at_s, self.at_s + self.cycles * (self.down_s + self.up_s))

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        for _ in range(self.cycles):
            injector._kill(self.node_id, "crash")
            yield env.timeout(self.down_s)
            injector._revive(self.node_id, "restart")
            yield env.timeout(self.up_s)


@dataclass(frozen=True)
class PartitionFault:
    """Cut a set of nodes off the fabric for ``duration_s``.

    Reuses the mechanics of
    :meth:`repro.cluster.geo.GeoCluster.partition_datacenter` for
    single-rack splits: a partitioned node exchanges no messages with the
    majority side (modelled as the node not answering RPCs), and heals
    with whatever state its database model kept.
    """

    node_ids: tuple[int, ...]
    at_s: float
    duration_s: Optional[float] = None

    def targets(self) -> tuple[int, ...]:
        return tuple(self.node_ids)

    def window(self) -> tuple[float, float]:
        end = (float("inf") if self.duration_s is None
               else self.at_s + self.duration_s)
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        for node_id in self.node_ids:
            injector._kill(node_id, "partition")
        if self.duration_s is not None:
            yield env.timeout(self.duration_s)
            for node_id in self.node_ids:
                injector._revive(node_id, "heal")


@dataclass(frozen=True)
class NicDegradeFault:
    """Packet-loss / latency degradation on one node's NIC.

    Loss and latency both surface to the flows crossing the NIC as a
    lower effective bandwidth (retransmissions resend bytes, delay slows
    the pipe), so the degradation is a single service-time multiplier on
    the NIC's serialization — see :attr:`repro.cluster.nic.Nic.slowdown`.
    """

    node_id: int
    at_s: float
    duration_s: Optional[float] = None
    #: Serialization-time multiplier while degraded (>= 1).
    slowdown: float = 8.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")

    def targets(self) -> tuple[int, ...]:
        return (self.node_id,)

    def window(self) -> tuple[float, float]:
        end = (float("inf") if self.duration_s is None
               else self.at_s + self.duration_s)
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        injector._set_nic(self.node_id, self.slowdown, "nic_degrade")
        if self.duration_s is not None:
            yield env.timeout(self.duration_s)
            injector._set_nic(self.node_id, 1.0, "nic_heal")


@dataclass(frozen=True)
class DiskDegradeFault:
    """Slow-disk gray failure: the spindle serves, but ``slowdown`` x
    slower (see :attr:`repro.cluster.disk.Disk.slowdown`).  The node
    still answers RPCs — the classic fail-slow fault that detection
    built on liveness never catches."""

    node_id: int
    at_s: float
    duration_s: Optional[float] = None
    #: Disk service-time multiplier while degraded (>= 1).
    slowdown: float = 8.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")

    def targets(self) -> tuple[int, ...]:
        return (self.node_id,)

    def window(self) -> tuple[float, float]:
        end = (float("inf") if self.duration_s is None
               else self.at_s + self.duration_s)
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        injector._set_disk(self.node_id, self.slowdown, "disk_degrade")
        if self.duration_s is not None:
            yield env.timeout(self.duration_s)
            injector._set_disk(self.node_id, 1.0, "disk_heal")


@dataclass(frozen=True)
class DcPartitionFault:
    """Cut one datacenter's *servers* off the fabric for ``duration_s``.

    The region's client node stays up, so its operations observe the
    outage honestly (UnavailableError / WAN fallback) instead of the
    whole region silently vanishing from the measurements.  Node ids are
    resolved from the cluster at fire time; validation checks the
    datacenter name instead of node ids.
    """

    datacenter: str
    at_s: float
    duration_s: Optional[float] = None

    def targets(self) -> tuple[int, ...]:
        return ()

    def window(self) -> tuple[float, float]:
        end = (float("inf") if self.duration_s is None
               else self.at_s + self.duration_s)
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        for node_id in injector._dc_servers(self.datacenter):
            injector._kill(node_id, "dc_partition")
        if self.duration_s is not None:
            yield env.timeout(self.duration_s)
            for node_id in injector._dc_servers(self.datacenter):
                injector._revive(node_id, "dc_heal")


@dataclass(frozen=True)
class WanDegradeFault:
    """Stretch every cross-datacenter link by ``factor`` (>= 1).

    Models a congested / rerouted WAN: propagation grows and usable
    bandwidth thins by the same multiplier (see
    :meth:`repro.cluster.geo.GeoCluster.degrade_wan`).  Logged against
    the pseudo-node id ``-1`` since it is fabric-wide.
    """

    at_s: float
    duration_s: Optional[float] = None
    factor: float = 6.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"wan factor must be >= 1, got {self.factor}")

    def targets(self) -> tuple[int, ...]:
        return ()

    def window(self) -> tuple[float, float]:
        end = (float("inf") if self.duration_s is None
               else self.at_s + self.duration_s)
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        injector._set_wan(self.factor, "wan_degrade")
        if self.duration_s is not None:
            yield env.timeout(self.duration_s)
            injector._set_wan(1.0, "wan_heal")


@dataclass(frozen=True)
class DcSlowNicFault:
    """NIC degradation on every server of one datacenter.

    The asymmetric-link gray failure: one region's egress/ingress slows
    by ``slowdown`` while the rest of the fleet is healthy.
    """

    datacenter: str
    at_s: float
    duration_s: Optional[float] = None
    slowdown: float = 8.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")

    def targets(self) -> tuple[int, ...]:
        return ()

    def window(self) -> tuple[float, float]:
        end = (float("inf") if self.duration_s is None
               else self.at_s + self.duration_s)
        return (self.at_s, end)

    def run(self, injector: "FailureInjector") -> Generator:
        env = injector.cluster.env
        if self.at_s > env.now:
            yield env.timeout(self.at_s - env.now)
        for node_id in injector._dc_servers(self.datacenter):
            injector._set_nic(node_id, self.slowdown, "nic_degrade")
        if self.duration_s is not None:
            yield env.timeout(self.duration_s)
            for node_id in injector._dc_servers(self.datacenter):
                injector._set_nic(node_id, 1.0, "nic_heal")


# -- declarative spec (config-level) ---------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """JSON-safe fault description carried by an ``ExperimentConfig``.

    ``at_s`` is relative to the start of the measured run (the resolver
    offsets it by the simulation time at which the run begins), so the
    same spec is reusable across cells and is part of the cell-cache
    fingerprint.
    """

    kind: str = "crash"
    node_id: int = 0
    at_s: float = 4.0
    #: Fault duration.  crash/partition/slow_*: how long the fault lasts
    #: (None = never cleared).  flap: the *per-cycle* downtime.
    duration_s: Optional[float] = 10.0
    #: flap only: number of down/up rounds.
    cycles: int = 3
    #: flap only: uptime between down periods.
    up_s: float = 1.0
    #: slow_nic / slow_disk / dc_slow_nic / wan_degrade: multiplier.
    severity: float = 8.0
    #: partition only: how many consecutive node ids (from ``node_id``)
    #: land on the minority side of the split.
    span: int = 2
    #: dc_partition / dc_slow_nic only: which datacenter the fault hits.
    datacenter: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {FAULT_KINDS}")
        if self.kind in ("dc_partition", "dc_slow_nic") \
                and self.datacenter is None:
            raise ValueError(f"fault kind {self.kind!r} needs a datacenter")

    def resolve(self, base_s: float = 0.0):
        """The concrete fault, with ``at_s`` offset to absolute time."""
        at = base_s + self.at_s
        if self.kind == "crash":
            return CrashFault(self.node_id, at, self.duration_s)
        if self.kind == "flap":
            return FlapFault(self.node_id, at, cycles=self.cycles,
                             down_s=self.duration_s or 1.0, up_s=self.up_s)
        if self.kind == "partition":
            return PartitionFault(
                tuple(range(self.node_id, self.node_id + self.span)),
                at, self.duration_s)
        if self.kind == "slow_nic":
            return NicDegradeFault(self.node_id, at, self.duration_s,
                                   slowdown=self.severity)
        if self.kind == "dc_partition":
            return DcPartitionFault(self.datacenter, at, self.duration_s)
        if self.kind == "wan_degrade":
            return WanDegradeFault(at, self.duration_s,
                                   factor=self.severity)
        if self.kind == "dc_slow_nic":
            return DcSlowNicFault(self.datacenter, at, self.duration_s,
                                  slowdown=self.severity)
        return DiskDegradeFault(self.node_id, at, self.duration_s,
                                slowdown=self.severity)


# -- the schedule ----------------------------------------------------------

class FaultSchedule:
    """An ordered, validated collection of faults for one campaign."""

    def __init__(self, faults: Iterable) -> None:
        self.faults = tuple(faults)

    @classmethod
    def from_specs(cls, specs: Sequence[FaultSpec],
                   base_s: float = 0.0) -> "FaultSchedule":
        """Resolve declarative specs at ``base_s`` (the run's start)."""
        return cls(spec.resolve(base_s) for spec in specs)

    def validate(self, n_nodes: int,
                 datacenters: Optional[set] = None) -> None:
        """Reject unknown targets and overlapping windows on one target.

        ``datacenters`` is the set of datacenter names the cluster has
        (``None`` on single-rack clusters).  Datacenter-scoped faults on
        a cluster without datacenters, and faults naming an unknown node
        or datacenter, fail fast with :class:`UnknownFaultTargetError`
        at arm time instead of silently no-opping mid-run.
        """
        per_target: dict[object, list[tuple[float, float]]] = {}
        for fault in self.faults:
            for node_id in fault.targets():
                if not 0 <= node_id < n_nodes:
                    raise UnknownFaultTargetError(
                        f"fault {fault!r} targets unknown node {node_id} "
                        f"(cluster has nodes 0..{n_nodes - 1})")
                per_target.setdefault(node_id, []).append(fault.window())
            dc = getattr(fault, "datacenter", None)
            if dc is not None:
                if datacenters is None:
                    raise UnknownFaultTargetError(
                        f"fault {fault!r} targets datacenter {dc!r} but "
                        f"the cluster has no datacenters (geo cluster "
                        f"required)")
                if dc not in datacenters:
                    raise UnknownFaultTargetError(
                        f"fault {fault!r} targets unknown datacenter "
                        f"{dc!r} (cluster has {sorted(datacenters)})")
                per_target.setdefault(("dc", dc), []).append(fault.window())
            if isinstance(fault, WanDegradeFault):
                if datacenters is None:
                    raise UnknownFaultTargetError(
                        f"fault {fault!r} degrades the WAN but the "
                        f"cluster has no datacenters (geo cluster "
                        f"required)")
                per_target.setdefault("wan", []).append(fault.window())
        for target, windows in per_target.items():
            windows.sort()
            for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
                if next_start < prev_end:
                    raise ValueError(
                        f"overlapping faults on {target}: a fault "
                        f"starting at {next_start}s begins before the "
                        f"previous one ends at {prev_end}s")


# -- the injector ----------------------------------------------------------

class FailureInjector:
    """Executes a fault schedule and records what actually happened."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        #: (time, node_id, action) tuples in occurrence order.  Actions
        #: are ``crash``/``restart``, ``partition``/``heal``,
        #: ``nic_degrade``/``nic_heal``, ``disk_degrade``/``disk_heal`` —
        #: with a ``-noop`` suffix when the node was already in the
        #: requested state (idempotent injection).
        self.log: list[tuple[float, int, str]] = []

    def schedule(self, fault) -> None:
        """Validate and arm one fault as a simulation process."""
        self.inject(FaultSchedule([fault]))

    def schedule_all(self, faults: Sequence) -> None:
        """Validate and arm several faults as one schedule."""
        self.inject(FaultSchedule(faults))

    def inject(self, schedule: FaultSchedule) -> None:
        """Validate ``schedule`` against the cluster, then arm every fault."""
        node_dc = getattr(self.cluster, "node_datacenter", None)
        datacenters = set(node_dc.values()) if node_dc is not None else None
        schedule.validate(len(self.cluster.nodes), datacenters=datacenters)
        for fault in schedule.faults:
            targets = fault.targets()
            scope = (targets[0] if targets
                     else getattr(fault, "datacenter", None) or "wan")
            self.cluster.env.process(
                fault.run(self),
                name=f"fault-{type(fault).__name__}-{scope}")

    # -- primitives used by the fault types (idempotent, logged) ----------

    def _kill(self, node_id: int, action: str) -> None:
        env = self.cluster.env
        if self.cluster.node(node_id).alive:
            self.cluster.kill(node_id)
            self.log.append((env.now, node_id, action))
        else:
            self.log.append((env.now, node_id, action + "-noop"))

    def _revive(self, node_id: int, action: str) -> None:
        env = self.cluster.env
        if not self.cluster.node(node_id).alive:
            self.cluster.restart(node_id)
            self.log.append((env.now, node_id, action))
        else:
            self.log.append((env.now, node_id, action + "-noop"))

    def _set_nic(self, node_id: int, slowdown: float, action: str) -> None:
        nic = self.cluster.node(node_id).nic
        if nic.slowdown == slowdown:
            self.log.append((self.cluster.env.now, node_id, action + "-noop"))
        else:
            nic.slowdown = slowdown
            self.log.append((self.cluster.env.now, node_id, action))

    def _set_disk(self, node_id: int, slowdown: float, action: str) -> None:
        disk = self.cluster.node(node_id).disk
        if disk.slowdown == slowdown:
            self.log.append((self.cluster.env.now, node_id, action + "-noop"))
        else:
            disk.slowdown = slowdown
            self.log.append((self.cluster.env.now, node_id, action))

    def _set_wan(self, factor: float, action: str) -> None:
        cluster = self.cluster
        if cluster.wan_factor == factor:
            self.log.append((cluster.env.now, -1, action + "-noop"))
        elif factor == 1.0:
            cluster.heal_wan()
            self.log.append((cluster.env.now, -1, action))
        else:
            cluster.degrade_wan(factor)
            self.log.append((cluster.env.now, -1, action))

    def _dc_servers(self, dc_name: str) -> list[int]:
        """Server node ids of one datacenter (geo clusters only)."""
        return self.cluster.servers_in(dc_name)
