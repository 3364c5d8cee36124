"""Every fault kind, pinned by a property: for a random :class:`FaultSpec`
armed on a 6-node rack (node kinds) or a two-datacenter geo cluster
(datacenter and WAN kinds), the injector's log equals a reference
written here from the spec and :data:`FAULT_ACTIONS` alone — the degrade
at ``at_s`` on each target, the heal at the window's end, alternating
rounds for ``flap``, and a ``-noop`` suffix exactly when the target is
already in the requested state.  A spec that overlaps itself, or names a
target the cluster does not have, is rejected before anything fires.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import (DC_FAULT_KINDS, FAULT_ACTIONS, FAULT_KINDS,
                                  FLAP_CYCLES, FLAP_UP_S, FaultSpec, GeoConfig)
from repro.cluster.failure import FailureInjector, UnknownFaultTargetError
from repro.cluster.geo import GeoCluster
from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

N_NODES = 6
DATACENTERS = ("eu-west", "us-west")


def rack() -> Cluster:
    return Cluster(Environment(), ClusterSpec(n_nodes=N_NODES),
                   RngRegistry(5))


def geo() -> GeoCluster:
    return GeoCluster(Environment(),
                      GeoConfig(datacenters=tuple((dc, 3)
                                                  for dc in DATACENTERS),
                                replication_per_dc=()),
                      RngRegistry(5))


@st.composite
def specs(draw):
    # Each list leads with the value hypothesis should favour: a fault
    # that heals, a real slowdown.
    kind = draw(st.sampled_from(FAULT_KINDS))
    span = draw(st.integers(1, 3))
    return FaultSpec(
        kind=kind,
        node_id=draw(st.integers(0, N_NODES - (span if kind == "partition"
                                               else 1))),
        at_s=draw(st.sampled_from([0.25, 1.0, 2.5, 0.0])),
        duration_s=draw(st.one_of(st.sampled_from([0.1, 0.5, 1.0, 3.0]),
                                  st.none())),
        severity=draw(st.sampled_from([8.0, 2.0, 1.0])),
        span=span,
        datacenter=draw(st.sampled_from(DATACENTERS)))


def targets(spec: FaultSpec, cluster) -> tuple:
    if spec.kind == "wan_degrade":
        return (-1,)
    if spec.kind in DC_FAULT_KINDS:
        return tuple(cluster.servers_in(spec.datacenter))
    if spec.kind == "partition":
        return tuple(range(spec.node_id, spec.node_id + spec.span))
    return (spec.node_id,)


def state(spec: FaultSpec, cluster, target):
    """The one quantity ``spec``'s kind moves on ``target``."""
    if spec.kind == "wan_degrade":
        return cluster.wan_factor
    node = cluster.node(target)
    if spec.kind == "slow_disk":
        return node.disk.slowdown
    if spec.kind in ("slow_nic", "dc_slow_nic"):
        return node.nic.slowdown
    return node.alive


def levels(spec: FaultSpec) -> tuple:
    """(degraded, healthy) values of that quantity."""
    if spec.kind in ("crash", "flap", "partition", "dc_partition"):
        return (False, True)
    return (spec.severity, 1.0)


def pre_degrade(spec: FaultSpec, cluster, target) -> None:
    degraded = levels(spec)[0]
    if spec.kind == "wan_degrade":
        cluster.degrade_wan(degraded)
    elif spec.kind == "slow_disk":
        cluster.node(target).disk.slowdown = degraded
    elif spec.kind in ("slow_nic", "dc_slow_nic"):
        cluster.node(target).nic.slowdown = degraded
    else:
        cluster.kill(target)


def reference_log(spec: FaultSpec, hit: tuple, current: dict) -> list:
    degrade, heal = FAULT_ACTIONS[spec.kind]
    degraded, healthy = levels(spec)
    log = []

    def step(now, value, action):
        for target in hit:
            noop = current[target] == value
            log.append((now, target, action + "-noop" if noop else action))
            current[target] = value

    now = spec.at_s
    if spec.kind == "flap":
        for _ in range(FLAP_CYCLES):
            step(now, degraded, degrade)
            now += 1.0 if spec.duration_s is None else spec.duration_s
            step(now, healthy, heal)
            now += FLAP_UP_S
        return log
    step(now, degraded, degrade)
    if spec.duration_s is not None:
        step(now + spec.duration_s, healthy, heal)
    return log


@pytest.mark.parametrize("case", ["fires", "overlaps", "unknown_target"])
@settings(max_examples=200, deadline=None)
@given(spec=specs(), pre=st.sets(st.integers(0, 2), max_size=3))
def test_the_log_is_the_reference(case, spec, pre):
    cluster = geo() if spec.kind in DC_FAULT_KINDS else rack()
    injector = FailureInjector(cluster)
    if case != "fires":
        if case == "overlaps":
            armed, error = [spec, spec], ValueError
        elif spec.kind == "wan_degrade":
            armed, error = [spec], UnknownFaultTargetError
            cluster = rack()  # the WAN exists only on a geo cluster
            injector = FailureInjector(cluster)
        elif spec.kind in DC_FAULT_KINDS:
            armed = [replace(spec, datacenter="mars-north")]
            error = UnknownFaultTargetError
        else:
            armed = [replace(spec, node_id=N_NODES)]
            error = UnknownFaultTargetError
        with pytest.raises(error):
            injector.inject(armed)
        cluster.env.run(until=100.0)
        assert injector.log == []
        return

    hit = targets(spec, cluster)
    # A random few targets (by position) are already degraded when the
    # fault fires: their first action is a no-op.
    for index in pre:
        if index < len(hit):
            pre_degrade(spec, cluster, hit[index])
    current = {target: state(spec, cluster, target) for target in hit}
    expected = reference_log(spec, hit, current)
    injector.inject([spec])
    cluster.env.run(until=100.0)
    assert injector.log == expected
    assert {target: state(spec, cluster, target) for target in hit} \
        == current
