"""Unit tests for the energy meter."""

import pytest

from repro.energy.meter import EnergyMeter, EnergyReport
from repro.energy.power import (IDLE_W, NIC_W, PSTATE_IDLE_W, SLEEP_W,
                                PowerManager, PowerSpec)


class TestEnergyMeter:
    def test_idle_cluster_draws_idle_power(self, small_cluster):
        env = small_cluster.env
        meter = EnergyMeter(lambda: small_cluster.nodes)
        meter.start()
        env.timeout(10.0)
        env.run()
        report = meter.stop()
        assert report.duration_s == pytest.approx(10.0)
        expected_idle = 120.0 * 10.0 * 4
        assert report.idle_j == pytest.approx(expected_idle)
        assert report.cpu_j == pytest.approx(0.0, abs=1.0)

    def test_busy_cpu_adds_energy(self, small_cluster):
        env = small_cluster.env
        node = small_cluster.node(0)
        meter = EnergyMeter(lambda: small_cluster.nodes)
        meter.start()

        def burn():
            for _ in range(100):
                yield from node.cpu_work(0.01)

        env.process(burn())
        env.run()
        report = meter.stop()
        assert report.cpu_j > 0

    def test_disk_adds_energy(self, small_cluster):
        env = small_cluster.env
        node = small_cluster.node(0)
        meter = EnergyMeter(lambda: small_cluster.nodes)
        meter.start()

        def churn():
            for _ in range(20):
                yield from node.disk.read(1 << 20)

        env.process(churn())
        env.run()
        report = meter.stop()
        assert report.disk_j > 0

    def test_joules_per_op(self):
        report = EnergyReport(duration_s=1.0, idle_j=100.0, cpu_j=20.0,
                              disk_j=5.0)
        assert report.total_j == 125.0
        assert report.joules_per_op(25) == pytest.approx(5.0)

    def test_zero_ops_is_not_free(self):
        # An all-errors window burned real energy; joules/op must blow
        # up, not report the cell as free.
        report = EnergyReport(duration_s=1.0, idle_j=100.0, cpu_j=20.0,
                              disk_j=5.0)
        assert report.joules_per_op(0) == float("inf")
        assert report.joules_per_op(-1) == float("inf")

    def test_nic_busy_time_is_priced(self, small_cluster):
        env = small_cluster.env
        src, dst = small_cluster.node(0), small_cluster.node(1)
        nic = src.nic
        meter = EnergyMeter(lambda: small_cluster.nodes)
        meter.start()

        def chatter():
            for _ in range(50):
                yield small_cluster.leg(src, dst, 1 << 16)

        env.process(chatter())
        env.run()
        report = meter.stop()
        assert nic.busy_s > 0
        assert report.nic_j == pytest.approx(
            NIC_W * (nic.busy_s + dst.nic.busy_s))
        assert report.total_j == pytest.approx(
            report.idle_j + report.cpu_j + report.disk_j + report.nic_j
            + report.sleep_j)

    def test_meter_bills_node_joining_mid_run(self, small_cluster, rngs):
        from repro.cluster.node import Node, NodeSpec
        env = small_cluster.env
        nodes = list(small_cluster.nodes)
        meter = EnergyMeter(lambda: nodes)
        meter.start()
        env.run(until=6.0)
        # A node provisioned mid-window bills from its creation time,
        # not from the window start.
        nodes.append(Node(env, 99, NodeSpec(), rngs.stream("disk.99")))
        env.timeout(4.0)
        env.run()
        report = meter.stop()
        assert report.duration_s == pytest.approx(10.0)
        assert report.node_seconds == pytest.approx(4 * 10.0 + 4.0)
        assert report.idle_j == pytest.approx(120.0 * (4 * 10.0 + 4.0))

    def test_report_round_trips_to_dict(self):
        report = EnergyReport(duration_s=2.0, idle_j=10.0, cpu_j=3.0,
                              disk_j=1.0, nic_j=0.5, sleep_j=0.25,
                              node_seconds=8.0, wakes=2,
                              wake_latency_s=0.6)
        data = report.to_dict()
        assert data["total_j"] == pytest.approx(report.total_j)
        assert data["wakes"] == 2
        import json
        json.dumps(data)

    def test_stop_before_start_rejected(self, small_cluster):
        meter = EnergyMeter(lambda: small_cluster.nodes)
        with pytest.raises(RuntimeError):
            meter.stop()

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            EnergyMeter(lambda: []).start()

    def test_custom_power_spec(self, small_cluster):
        # A cell's thresholds decide how long each idle node spends in
        # each state; the meter bills those spans at the fixed draws.
        env = small_cluster.env
        spec = PowerSpec(idle_after_s=0.25, sleep_after_s=0.5)
        for node in small_cluster.nodes:
            node.power = PowerManager(spec, mode="race_to_sleep",
                                      now=env.now)
        meter = EnergyMeter(lambda: small_cluster.nodes)
        meter.start()
        env.timeout(1.0)
        env.run()
        report = meter.stop()
        assert report.idle_j == pytest.approx(4 * IDLE_W * 0.25)
        assert report.sleep_j == pytest.approx(
            4 * (PSTATE_IDLE_W * 0.25 + SLEEP_W * 0.5))
