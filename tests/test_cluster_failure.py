"""Unit tests for failure injection."""

import pytest

from repro.cluster.failure import (CrashFault, DiskDegradeFault,
                                   FailureInjector, FaultSchedule, FaultSpec,
                                   FlapFault, NicDegradeFault, PartitionFault,
                                   UnknownFaultTargetError)


class TestFailureInjector:
    def test_crash_at_scheduled_time(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule(CrashFault(node_id=2, at_s=5.0))
        env.run(until=4.9)
        assert small_cluster.node(2).alive
        env.run(until=5.1)
        assert not small_cluster.node(2).alive
        assert injector.log == [(5.0, 2, "crash")]

    def test_restart_after_downtime(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule(CrashFault(node_id=1, at_s=2.0, down_s=3.0))
        env.run(until=4.0)
        assert not small_cluster.node(1).alive
        env.run(until=6.0)
        assert small_cluster.node(1).alive
        assert injector.log == [(2.0, 1, "crash"), (5.0, 1, "restart")]

    def test_permanent_crash_never_restarts(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule(CrashFault(node_id=0, at_s=1.0, down_s=None))
        env.run(until=100.0)
        assert not small_cluster.node(0).alive

    def test_schedule_all(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule_all([CrashFault(0, 1.0, 1.0),
                               CrashFault(1, 2.0, 1.0)])
        env.run(until=10.0)
        assert len(injector.log) == 4

    def test_double_kill_is_noop_and_logged(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        small_cluster.kill(2)  # already dead when the fault fires
        injector.schedule(CrashFault(node_id=2, at_s=1.0, down_s=2.0))
        env.run(until=5.0)
        assert injector.log == [(1.0, 2, "crash-noop"), (3.0, 2, "restart")]

    def test_unknown_node_rejected_before_arming(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(ValueError, match="unknown node"):
            injector.schedule(CrashFault(node_id=99, at_s=1.0))
        assert injector.log == []

    def test_overlapping_faults_on_one_node_rejected(self, small_cluster):
        injector = FailureInjector(small_cluster)
        with pytest.raises(ValueError, match="overlapping"):
            injector.schedule_all([CrashFault(1, 1.0, 5.0),
                                   CrashFault(1, 3.0, 1.0)])

    def test_sequential_faults_on_one_node_allowed(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule_all([CrashFault(1, 1.0, 1.0),
                               CrashFault(1, 3.0, 1.0)])
        env.run(until=10.0)
        assert len(injector.log) == 4


class TestFaultTypes:
    def test_flap_cycles(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule(FlapFault(node_id=1, at_s=1.0, cycles=3,
                                    down_s=0.5, up_s=0.5))
        env.run(until=2.2)  # mid second downtime
        assert not small_cluster.node(1).alive
        env.run(until=10.0)
        assert small_cluster.node(1).alive
        actions = [a for _, _, a in injector.log]
        assert actions == ["crash", "restart"] * 3

    def test_partition_cuts_and_heals_the_span(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule(PartitionFault(node_ids=(0, 1), at_s=1.0,
                                         duration_s=2.0))
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
        injector.schedule(NicDegradeFault(node_id=1, at_s=1.0,
                                          duration_s=2.0, slowdown=4.0))
        env.run(until=2.0)
        assert small_cluster.node(1).nic.slowdown == 4.0
        assert small_cluster.node(1).alive  # gray failure: still up
        env.run(until=4.0)
        assert small_cluster.node(1).nic.slowdown == 1.0

    def test_disk_degrade_sets_and_restores_slowdown(self, small_cluster):
        env = small_cluster.env
        injector = FailureInjector(small_cluster)
        injector.schedule(DiskDegradeFault(node_id=3, at_s=1.0,
                                           duration_s=2.0, slowdown=8.0))
        env.run(until=2.0)
        assert small_cluster.node(3).disk.slowdown == 8.0
        env.run(until=4.0)
        assert small_cluster.node(3).disk.slowdown == 1.0

    def test_degrade_slowdown_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            NicDegradeFault(node_id=0, at_s=0.0, slowdown=0.5)
        with pytest.raises(ValueError):
            DiskDegradeFault(node_id=0, at_s=0.0, slowdown=0.5)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_resolve_offsets_relative_time(self):
        fault = FaultSpec(kind="crash", node_id=2, at_s=4.0,
                          duration_s=10.0).resolve(base_s=100.0)
        assert isinstance(fault, CrashFault)
        assert fault.at_s == 104.0
        assert fault.down_s == 10.0

    def test_resolve_each_kind(self):
        resolved = {kind: FaultSpec(kind=kind, node_id=1).resolve()
                    for kind in ("crash", "flap", "partition",
                                 "slow_nic", "slow_disk")}
        assert isinstance(resolved["crash"], CrashFault)
        assert isinstance(resolved["flap"], FlapFault)
        assert isinstance(resolved["partition"], PartitionFault)
        assert resolved["partition"].node_ids == (1, 2)  # span=2 default
        assert isinstance(resolved["slow_nic"], NicDegradeFault)
        assert isinstance(resolved["slow_disk"], DiskDegradeFault)

    def test_schedule_from_specs_validates(self, small_cluster):
        schedule = FaultSchedule.from_specs(
            (FaultSpec(kind="partition", node_id=3, span=2, at_s=1.0),),
            base_s=0.0)
        with pytest.raises(ValueError, match="unknown node"):
            schedule.validate(len(small_cluster.nodes))  # 4 nodes: 3,4 bad


class TestDcFaultValidation:
    """Datacenter-scoped faults are rejected at construction / arm time
    when they name targets the cluster does not have."""

    def _geo_cluster(self):
        from repro.cluster.geo import GeoCluster, GeoSpec
        from repro.sim.kernel import Environment
        from repro.sim.rng import RngRegistry
        env = Environment()
        return GeoCluster(env, GeoSpec(datacenters={"eu-west": 2,
                                                    "us-west": 2},
                                       client_datacenter="eu-west"),
                          RngRegistry(3))

    def test_dc_fault_spec_requires_a_datacenter(self):
        with pytest.raises(ValueError, match="needs a datacenter"):
            FaultSpec(kind="dc_partition")
        with pytest.raises(ValueError, match="needs a datacenter"):
            FaultSpec(kind="dc_slow_nic")

    def test_dc_fault_on_single_rack_cluster_rejected(self, small_cluster):
        injector = FailureInjector(small_cluster)
        schedule = FaultSchedule.from_specs(
            (FaultSpec(kind="dc_partition", datacenter="eu-west",
                       at_s=1.0),))
        with pytest.raises(UnknownFaultTargetError,
                           match="no datacenters"):
            injector.inject(schedule)
        assert injector.log == []

    def test_wan_fault_on_single_rack_cluster_rejected(self, small_cluster):
        injector = FailureInjector(small_cluster)
        schedule = FaultSchedule.from_specs(
            (FaultSpec(kind="wan_degrade", at_s=1.0, severity=4.0),))
        with pytest.raises(UnknownFaultTargetError,
                           match="no datacenters"):
            injector.inject(schedule)

    def test_unknown_datacenter_rejected(self):
        geo = self._geo_cluster()
        injector = FailureInjector(geo)
        schedule = FaultSchedule.from_specs(
            (FaultSpec(kind="dc_partition", datacenter="mars-north",
                       at_s=1.0),))
        with pytest.raises(UnknownFaultTargetError,
                           match="unknown datacenter 'mars-north'"):
            injector.inject(schedule)
        assert injector.log == []

    def test_known_datacenter_accepted_and_fires(self):
        geo = self._geo_cluster()
        injector = FailureInjector(geo)
        injector.inject(FaultSchedule.from_specs(
            (FaultSpec(kind="dc_partition", datacenter="us-west",
                       at_s=1.0, duration_s=2.0),)))
        geo.env.run(until=2.0)
        assert all(not geo.node(n).alive for n in geo.servers_in("us-west"))
        assert all(geo.node(n).alive for n in geo.servers_in("eu-west"))
        geo.env.run(until=4.0)
        assert all(geo.node(n).alive for n in geo.servers_in("us-west"))

    def test_unknown_node_rejected_with_named_error(self, small_cluster):
        schedule = FaultSchedule.from_specs(
            (FaultSpec(kind="crash", node_id=99, at_s=1.0),))
        with pytest.raises(UnknownFaultTargetError, match="unknown node 99"):
            schedule.validate(len(small_cluster.nodes))

    def test_overlapping_dc_faults_rejected(self):
        geo = self._geo_cluster()
        injector = FailureInjector(geo)
        schedule = FaultSchedule.from_specs(
            (FaultSpec(kind="dc_partition", datacenter="us-west",
                       at_s=1.0, duration_s=5.0),
             FaultSpec(kind="dc_slow_nic", datacenter="us-west",
                       at_s=3.0, duration_s=1.0)))
        with pytest.raises(ValueError, match="overlapping"):
            injector.inject(schedule)
