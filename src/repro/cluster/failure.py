"""Fault injection: declarative faults, armed directly against a cluster.

The paper's related-work section (Pokluda et al.) benchmarks failover by
killing a node mid-run and watching latency/throughput.  This module
generalizes that probe into eight fault kinds, each one a
:class:`FaultSpec`: crash/restart, node flapping, network partitions
(the single-rack analogue of ``dc_partition`` below), NIC degradation
(packet loss / latency, modelled as an effective-bandwidth
multiplier), slow-disk gray failures (a throttled
:class:`~repro.cluster.disk.Disk` service-time multiplier) and the three
datacenter kinds below.

The :class:`FailureInjector` arms a list of specs against a
:class:`~repro.cluster.topology.Cluster` and records what actually
happened — including *no-op* entries when a fault fires against a node
already in the requested state — so availability reports
(:mod:`repro.core.failover`) can reconstruct the degraded window exactly.

Specs are validated before anything is armed: unknown node ids,
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
from typing import Generator, Optional, Sequence

from repro.cluster.topology import Cluster

__all__ = [
    "DC_FAULT_KINDS",
    "FAULT_ACTIONS",
    "FAULT_KINDS",
    "FLAP_CYCLES",
    "FLAP_UP_S",
    "FailureInjector",
    "FaultSpec",
    "UnknownFaultTargetError",
]

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
_SEVERITY_KINDS = ("slow_nic", "slow_disk", "wan_degrade", "dc_slow_nic")

#: A flap's down/up rounds, and the uptime between its down periods.
FLAP_CYCLES = 3
FLAP_UP_S = 1.0


class UnknownFaultTargetError(ValueError):
    """A fault names a node id or datacenter the cluster does not have."""


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
        if kind in _SEVERITY_KINDS and self.severity < 1.0:
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


class FailureInjector:
    """Arms fault specs and records what actually happened."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        #: (time, node_id, action) tuples in occurrence order: the
        #: actions of :data:`FAULT_ACTIONS`, with a ``-noop`` suffix when
        #: the target was already in the requested state (idempotent
        #: injection).  The WAN logs as node ``-1``.
        self.log: list[tuple[float, int, str]] = []

    def inject(self, specs: Sequence[FaultSpec], base_s: float = 0.0) -> None:
        """Validate ``specs`` against the cluster, then arm each one, in
        order, with ``at_s`` offset by ``base_s``.

        Unknown node ids or datacenters, a datacenter or WAN kind on a
        cluster without datacenters, and overlapping windows on one
        target fail fast here — before anything is armed — instead of
        silently no-opping mid-run.
        """
        n_nodes = len(self.cluster.nodes)
        node_dc = self.cluster.node_datacenter
        datacenters = set(node_dc.values()) if node_dc is not None else None
        windows: dict[str, list] = {}
        names = []
        for spec in specs:
            if spec.kind in DC_FAULT_KINDS:
                if datacenters is None:
                    raise UnknownFaultTargetError(
                        f"{spec!r} needs datacenters but the cluster has "
                        f"no datacenters (geo cluster required)")
                if spec.kind == "wan_degrade":
                    scope, targets = "wan", ["the WAN"]
                elif spec.datacenter not in datacenters:
                    raise UnknownFaultTargetError(
                        f"{spec!r} targets unknown datacenter "
                        f"{spec.datacenter!r} (cluster has "
                        f"{sorted(datacenters)})")
                else:
                    scope = spec.datacenter
                    targets = [f"datacenter {spec.datacenter!r}"]
            else:
                for node_id in spec.node_ids():
                    if not 0 <= node_id < n_nodes:
                        raise UnknownFaultTargetError(
                            f"{spec!r} targets unknown node {node_id} "
                            f"(cluster has nodes 0..{n_nodes - 1})")
                scope = spec.node_id
                targets = [f"node {node_id}" for node_id in spec.node_ids()]
            names.append(f"fault-{spec.kind}-{scope}")
            for target in targets:
                windows.setdefault(target, []).append(
                    (*spec.window(base_s), spec))
        for target, spans in windows.items():
            spans.sort(key=lambda span: span[:2])
            for (_, prev_end, prev), (start, _, spec) in zip(spans,
                                                             spans[1:]):
                if start < prev_end:
                    raise ValueError(
                        f"overlapping faults on {target}: {spec!r} starts "
                        f"at {start}s, before {prev!r} ends at "
                        f"{prev_end}s")
        for spec, name in zip(specs, names):
            self.cluster.env.process(self._run(spec, base_s), name=name)

    def _run(self, spec: FaultSpec, base_s: float) -> Generator:
        """One fault's process: wait for its start, then each round
        degrades every target, holds, heals (flap: and stays up)."""
        env = self.cluster.env
        at = base_s + spec.at_s
        if at > env.now:
            yield env.timeout(at - env.now)
        hold = spec.hold_s
        for _ in range(FLAP_CYCLES if spec.kind == "flap" else 1):
            for target in self._targets(spec):
                self._set(spec, target, degraded=True)
            if hold is None:
                return
            yield env.timeout(hold)
            for target in self._targets(spec):
                self._set(spec, target, degraded=False)
            if spec.kind == "flap":
                yield env.timeout(FLAP_UP_S)

    def _targets(self, spec: FaultSpec) -> Sequence[int]:
        if spec.kind == "wan_degrade":
            return (-1,)
        if spec.kind in DC_FAULT_KINDS:
            return self.cluster.servers_in(spec.datacenter)
        return spec.node_ids()

    # -- the idempotent setters (the one place the -noop rule lives) ------

    def _set(self, spec: FaultSpec, target: int, degraded: bool) -> None:
        """Put ``target`` into ``spec``'s degraded (or healthy) state and
        log the action — ``-noop`` when it already was in that state."""
        kind = spec.kind
        level = spec.severity if degraded else 1.0
        if kind == "wan_degrade":
            changed = self._set_wan(level)
        elif kind == "slow_disk":
            changed = _set_slowdown(self.cluster.node(target).disk, level)
        elif kind in _SEVERITY_KINDS:
            changed = _set_slowdown(self.cluster.node(target).nic, level)
        else:
            changed = self._set_alive(target, not degraded)
        action = FAULT_ACTIONS[kind][0 if degraded else 1]
        self.log.append((self.cluster.env.now, target,
                         action if changed else action + "-noop"))

    def _set_alive(self, node_id: int, alive: bool) -> bool:
        if self.cluster.node(node_id).alive == alive:
            return False
        if alive:
            self.cluster.restart(node_id)
        else:
            self.cluster.kill(node_id)
        return True

    def _set_wan(self, factor: float) -> bool:
        cluster = self.cluster
        if cluster.wan_factor == factor:
            return False
        if factor == 1.0:
            cluster.heal_wan()
        else:
            cluster.degrade_wan(factor)
        return True


def _set_slowdown(device, slowdown: float) -> bool:
    """Set a NIC's or disk's service-time multiplier; False if it was."""
    if device.slowdown == slowdown:
        return False
    device.slowdown = slowdown
    return True
