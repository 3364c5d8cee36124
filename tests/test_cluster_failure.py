"""Unit tests for failure injection."""

import pytest

from repro.cluster.config import (FAULT_ACTIONS, FLAP_CYCLES, FLAP_UP_S,
                                  FaultSpec)
from repro.cluster.failure import FailureInjector, UnknownFaultTargetError
from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry


def crash(node_id, at_s, duration_s=None):
    return FaultSpec(kind="crash", node_id=node_id, at_s=at_s,
                     duration_s=duration_s)


class TestFailureInjector:
    def test_crash_at_scheduled_time(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([crash(2, 5.0)])
        env.run(until=4.9)
        assert small_cluster.node(2).alive
        env.run(until=5.1)
        assert not small_cluster.node(2).alive
        assert injector.log == [(5.0, 2, "crash")]

    def test_restart_after_downtime(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([crash(1, 2.0, 3.0)])
        env.run(until=4.0)
        assert not small_cluster.node(1).alive
        env.run(until=6.0)
        assert small_cluster.node(1).alive
        assert injector.log == [(2.0, 1, "crash"), (5.0, 1, "restart")]

    def test_permanent_crash_never_restarts(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([crash(0, 1.0, None)])
        env.run(until=100.0)
        assert not small_cluster.node(0).alive

    def test_inject_arms_every_spec(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([crash(0, 1.0, 1.0), crash(1, 2.0, 1.0)])
        env.run(until=10.0)
        assert len(injector.log) == 4

    def test_double_kill_is_noop_and_logged(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        small_cluster.kill(2)  # already dead when the fault fires
        injector.inject([crash(2, 1.0, 2.0)])
        env.run(until=5.0)
        assert injector.log == [(1.0, 2, "crash-noop"), (3.0, 2, "restart")]

    def test_unknown_node_rejected_before_arming(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(ValueError, match="unknown node"):
            injector.inject([crash(99, 1.0)])
        small_cluster.env.run(until=10.0)
        assert injector.log == []

    def test_overlapping_faults_on_one_node_rejected(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(ValueError, match="overlapping faults on node 1"):
            injector.inject([crash(1, 1.0, 5.0), crash(1, 3.0, 1.0)])

    def test_sequential_faults_on_one_node_allowed(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([crash(1, 1.0, 1.0), crash(1, 3.0, 1.0)])
        env.run(until=10.0)
        assert len(injector.log) == 4


class TestFaultTypes:
    def test_flap_cycles(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([FaultSpec(kind="flap", node_id=1, at_s=1.0,
                                   duration_s=0.5)])
        # FLAP_CYCLES rounds of 0.5 s down, FLAP_UP_S up.
        assert FLAP_CYCLES == 3 and FLAP_UP_S == 1.0
        env.run(until=2.7)  # mid second downtime
        assert not small_cluster.node(1).alive
        env.run(until=10.0)
        assert small_cluster.node(1).alive
        actions = [a for _, _, a in injector.log]
        assert actions == ["crash", "restart"] * 3

    def test_partition_cuts_and_heals_the_span(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([FaultSpec(kind="partition", node_id=0, span=2,
                                   at_s=1.0, duration_s=2.0)])
        env.run(until=2.0)
        assert not small_cluster.node(0).alive
        assert not small_cluster.node(1).alive
        assert small_cluster.node(2).alive
        env.run(until=4.0)
        assert small_cluster.node(0).alive
        assert small_cluster.node(1).alive
        actions = [a for _, _, a in injector.log]
        assert actions == ["partition", "partition", "heal", "heal"]

    def test_nic_degrade_sets_and_restores_slowdown(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([FaultSpec(kind="slow_nic", node_id=1, at_s=1.0,
                                   duration_s=2.0, severity=4.0)])
        env.run(until=2.0)
        assert small_cluster.node(1).nic.slowdown == 4.0
        assert small_cluster.node(1).alive  # gray failure: still up
        env.run(until=4.0)
        assert small_cluster.node(1).nic.slowdown == 1.0

    def test_disk_degrade_sets_and_restores_slowdown(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.inject([FaultSpec(kind="slow_disk", node_id=3, at_s=1.0,
                                   duration_s=2.0, severity=8.0)])
        env.run(until=2.0)
        assert small_cluster.node(3).disk.slowdown == 8.0
        env.run(until=4.0)
        assert small_cluster.node(3).disk.slowdown == 1.0

    def test_degrade_slowdown_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="FaultSpec.severity"):
            FaultSpec(kind="slow_nic", node_id=0, at_s=0.0, severity=0.5)
        with pytest.raises(ValueError, match="FaultSpec.severity"):
            FaultSpec(kind="slow_disk", node_id=0, at_s=0.0, severity=0.5)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_resolve_offsets_relative_time(self, small_cluster):
        """``at_s`` counts from the ``base_s`` the spec is armed at."""
        spec = FaultSpec(kind="crash", node_id=2, at_s=4.0, duration_s=10.0)
        assert spec.window(base_s=100.0) == (104.0, 114.0)
        env = small_cluster.env
        env.run(until=100.0)
        injector = FailureInjector(small_cluster)
        injector.inject([spec], base_s=100.0)
        env.run(until=120.0)
        assert injector.log == [(104.0, 2, "crash"), (114.0, 2, "restart")]

    def test_resolve_each_kind(self):
        """Each kind logs its own (degrade, heal) pair on its targets."""
        assert FAULT_ACTIONS == {
            "crash": ("crash", "restart"),
            "flap": ("crash", "restart"),
            "partition": ("partition", "heal"),
            "slow_nic": ("nic_degrade", "nic_heal"),
            "slow_disk": ("disk_degrade", "disk_heal"),
            "dc_partition": ("dc_partition", "dc_heal"),
            "wan_degrade": ("wan_degrade", "wan_heal"),
            "dc_slow_nic": ("nic_degrade", "nic_heal"),
        }
        for kind in ("crash", "flap", "partition", "slow_nic", "slow_disk"):
            cluster = Cluster(Environment(), ClusterSpec(n_nodes=4),
                              RngRegistry(1))
            injector = FailureInjector(cluster)
            injector.inject([FaultSpec(kind=kind, node_id=1, at_s=1.0,
                                       duration_s=1.0)])
            cluster.env.run(until=10.0)
            degrade, heal = FAULT_ACTIONS[kind]
            targets = (1, 2) if kind == "partition" else (1,)  # span=2
            rounds = FLAP_CYCLES if kind == "flap" else 1
            # A flap's rounds start every 1 s down + FLAP_UP_S up.
            assert injector.log == [
                entry for start in (1.0 + 2.0 * i for i in range(rounds))
                for entry in ([(start, node, degrade) for node in targets]
                              + [(start + 1.0, node, heal)
                                 for node in targets])]

    def test_schedule_from_specs_validates(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(ValueError, match="unknown node 4"):
            # 4 nodes: a span of 2 from node 3 reaches node 4.
            injector.inject([FaultSpec(kind="partition", node_id=3, span=2,
                                       at_s=1.0)])

    @pytest.mark.parametrize("kind,field,value", [
        ("slow_nic", "severity", 0.5), ("slow_disk", "severity", 0.0),
        ("wan_degrade", "severity", 0.9), ("dc_slow_nic", "severity", -1.0),
        ("partition", "span", 0)])
    def test_bad_shape_names_the_field_kind_and_range(self, kind, field,
                                                     value):
        with pytest.raises(ValueError,
                           match=rf"FaultSpec\.{field} must be >= 1 for "
                                 rf"kind '{kind}', got {value}"):
            FaultSpec(kind=kind, datacenter="eu-west", **{field: value})

    def test_fields_a_kind_does_not_read_are_not_checked(self):
        FaultSpec(kind="crash", severity=0.0, span=0)


class TestDcFaultValidation:
    """Datacenter-scoped faults are rejected at construction / arm time
    when they name targets the cluster does not have."""

    def _geo_cluster(self):
        from repro.cluster.config import GeoConfig
        from repro.cluster.geo import GeoCluster
        env = Environment()
        return GeoCluster(env, GeoConfig(
            datacenters=(("eu-west", 2), ("us-west", 2)),
            replication_per_dc=()), RngRegistry(3))

    def test_dc_fault_spec_requires_a_datacenter(self):
        with pytest.raises(ValueError, match="needs a datacenter"):
            FaultSpec(kind="dc_partition")
        with pytest.raises(ValueError, match="needs a datacenter"):
            FaultSpec(kind="dc_slow_nic")

    def test_dc_fault_on_single_rack_cluster_rejected(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(UnknownFaultTargetError,
                           match="no datacenters"):
            injector.inject([FaultSpec(kind="dc_partition",
                                       datacenter="eu-west", at_s=1.0)])
        assert injector.log == []

    def test_wan_fault_on_single_rack_cluster_rejected(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(UnknownFaultTargetError,
                           match="no datacenters"):
            injector.inject([FaultSpec(kind="wan_degrade", at_s=1.0,
                                       severity=4.0)])

    def test_unknown_datacenter_rejected(self):
        geo = self._geo_cluster()
        injector = FailureInjector(geo)
        with pytest.raises(UnknownFaultTargetError,
                           match="unknown datacenter 'mars-north'"):
            injector.inject([FaultSpec(kind="dc_partition",
                                       datacenter="mars-north", at_s=1.0)])
        assert injector.log == []

    def test_known_datacenter_accepted_and_fires(self):
        geo = self._geo_cluster()
        injector = FailureInjector(geo)
        injector.inject([FaultSpec(kind="dc_partition", datacenter="us-west",
                                   at_s=1.0, duration_s=2.0)])
        geo.env.run(until=2.0)
        assert all(not geo.node(n).alive for n in geo.servers_in("us-west"))
        assert all(geo.node(n).alive for n in geo.servers_in("eu-west"))
        geo.env.run(until=4.0)
        assert all(geo.node(n).alive for n in geo.servers_in("us-west"))

    def test_unknown_node_rejected_with_named_error(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(UnknownFaultTargetError,
                           match=r"FaultSpec\(kind='crash', node_id=99.* "
                                 r"targets unknown node 99"):
            injector.inject([crash(99, 1.0)])

    def test_overlapping_dc_faults_rejected(self):
        geo = self._geo_cluster()
        injector = FailureInjector(geo)
        with pytest.raises(ValueError,
                           match="overlapping faults on datacenter "
                                 "'us-west'"):
            injector.inject([
                FaultSpec(kind="dc_partition", datacenter="us-west",
                          at_s=1.0, duration_s=5.0),
                FaultSpec(kind="dc_slow_nic", datacenter="us-west",
                          at_s=3.0, duration_s=1.0)])
