"""Fault injection: declarative faults, armed directly against a cluster.

The paper's related-work section (Pokluda et al.) benchmarks failover by
killing a node mid-run and watching latency/throughput.  This module
generalizes that probe into eight fault kinds, each one a
:class:`~repro.cluster.config.FaultSpec`: crash/restart, node flapping,
network partitions (the single-rack analogue of ``dc_partition``
below), NIC degradation (packet loss / latency, modelled as an
effective-bandwidth multiplier), slow-disk gray failures (a throttled
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

from typing import Generator, Sequence

from repro.cluster.config import (DC_FAULT_KINDS, FAULT_ACTIONS, FLAP_CYCLES,
                                  FLAP_UP_S, SEVERITY_KINDS, FaultSpec)
from repro.cluster.topology import Cluster

__all__ = ["FailureInjector", "UnknownFaultTargetError"]


class UnknownFaultTargetError(ValueError):
    """A fault names a node id or datacenter the cluster does not have."""


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
        elif kind in SEVERITY_KINDS:
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
