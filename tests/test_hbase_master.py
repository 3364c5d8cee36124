"""Unit tests for the HMaster assignment/monitor logic."""

import pytest

from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.hbase import master as hmaster
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec


@pytest.fixture(autouse=True)
def short_windows(monkeypatch):
    """Every HMaster here detects a death within 1 s, recovers a region
    in 0.5 s and moves one in 0.2 s."""
    monkeypatch.setattr(hmaster, "DETECTION_S", 1.0)
    monkeypatch.setattr(hmaster, "RECOVERY_S", 0.5)
    monkeypatch.setattr(hmaster, "MOVE_S", 0.2)


def build(n_nodes=5, regions_per_server=2, spare_servers=0):
    env = Environment()
    cluster = Cluster(env, ClusterSpec(n_nodes=n_nodes), RngRegistry(61))
    deployment = HBaseCluster(
        cluster, HBaseConfig(replication=2,
                             regions_per_server=regions_per_server),
        StorageSpec(memtable_flush_bytes=8192, block_bytes=1024,
                    block_cache_bytes=8192),
        TailDefenseConfig(), spare_servers=spare_servers)
    return env, cluster, deployment


class TestAssignment:
    def test_every_region_has_exactly_one_server(self):
        _, _, deployment = build()
        seen = {}
        for server in deployment.regionservers.values():
            for region_id in server.regions:
                assert region_id not in seen
                seen[region_id] = server.node.node_id
        assert seen == deployment.master.assignment

    def test_reassign_removes_from_previous_server(self):
        _, _, deployment = build()
        region = deployment.regions[0]
        old_server_id = deployment.master.assignment[region.region_id]
        new_server = next(s for s in deployment.regionservers.values()
                          if s.node.node_id != old_server_id)
        deployment.master.assign(region, new_server)
        assert region.region_id not in \
            deployment.regionservers[old_server_id].regions
        assert region.region_id in new_server.regions

    def test_locate_rpc_returns_assignment(self):
        env, cluster, deployment = build()

        def scenario():
            result = yield from cluster.call(
                deployment.master_node, deployment.master_node,
                "master.locate")
            return result

        # Master calling itself is odd but exercises the handler.
        assignment = env.run(until=env.process(scenario()))
        assert assignment == deployment.master.assignment


class TestFailureMonitor:
    def test_failover_triggers_within_detection_window(self):
        env, cluster, deployment = build()
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        assert deployment.master.failovers
        assert all(nid != victim
                   for nid in deployment.master.assignment.values())

    def test_failover_distributes_over_survivors(self):
        env, cluster, deployment = build(n_nodes=6,
                                         regions_per_server=2)
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        targets = {nid for _, _, nid in
                   [(t, r, n) for t, r, n in deployment.master.failovers]}
        assert len(targets) >= 2  # round-robin over survivors

    def test_no_double_failover_for_same_death(self):
        env, cluster, deployment = build()
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=6.0)  # several monitor periods
        moved_regions = [r for _, r, _ in deployment.master.failovers]
        assert len(moved_regions) == len(set(moved_regions))

    def test_restarted_server_can_fail_again(self):
        env, cluster, deployment = build()
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        first = len(deployment.master.failovers)
        cluster.restart(victim)
        env.run(until=6.0)
        # The rejoin rebalance moved regions back onto the restarted
        # server, so killing it again produces *new* failover moves.
        assert any(nid == victim
                   for nid in deployment.master.assignment.values())
        cluster.kill(victim)
        env.run(until=9.0)
        assert len(deployment.master.failovers) > first
        assert all(nid != victim
                   for nid in deployment.master.assignment.values())

    def test_rejoin_rebalances_regions_back(self):
        """Satellite fix: without rejoin rebalancing, every failover
        permanently piles regions onto the survivors."""
        env, cluster, deployment = build(n_nodes=5, regions_per_server=2)
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        counts = {nid: 0 for nid in deployment.regionservers}
        for nid in deployment.master.assignment.values():
            counts[nid] += 1
        assert counts[victim] == 0
        cluster.restart(victim)
        env.run(until=6.0)
        counts = {nid: 0 for nid in deployment.regionservers}
        for nid in deployment.master.assignment.values():
            counts[nid] += 1
        assert counts[victim] > 0
        assert deployment.master.rebalances
        # Balanced to within the ceiling quota.
        quota = -(-len(deployment.master.assignment)
                  // len(deployment.regionservers))
        assert max(counts.values()) <= quota

    def test_rebalanced_region_pays_graceful_move_window(self):
        """A planned (rejoin-rebalance) move is a graceful close/reopen:
        it pays ``region_move_s``, not the crash-failover WAL replay."""
        env, cluster, deployment = build()
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        cluster.restart(victim)
        env.run(until=6.0)
        moved_at, region_id, _ = deployment.master.rebalances[0]
        region = deployment.master.regions[region_id]
        assert region.available_at == pytest.approx(moved_at + 0.2)

    def test_failover_still_pays_wal_replay_window(self):
        env, cluster, deployment = build()
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        moved_at, region_id, _ = deployment.master.failovers[0]
        region = deployment.master.regions[region_id]
        assert region.available_at == pytest.approx(moved_at + 0.5)

    def test_moved_region_unavailability_window(self):
        env, cluster, deployment = build()
        victim_server = deployment.regionservers[
            deployment.server_nodes[0].node_id]
        region = next(iter(victim_server.regions.values()))
        cluster.kill(victim_server.node.node_id)
        env.run(until=3.0)
        assert region.available_at > 0


class TestStandbyAndDecommission:
    def test_spare_servers_start_empty(self):
        _, _, deployment = build(n_nodes=6, spare_servers=1)
        spare = deployment.server_nodes[-1].node_id
        assert spare in deployment.master.standby
        assert all(nid != spare
                   for nid in deployment.master.assignment.values())
        # Pre-split only covers the in-service servers.
        assert len(deployment.regions) == 4 * 2

    def test_activate_rebalances_onto_spare(self):
        env, cluster, deployment = build(n_nodes=6, spare_servers=1)
        spare = deployment.server_nodes[-1].node_id
        moves = deployment.master.activate(spare)
        assert moves > 0
        assert spare not in deployment.master.standby
        assert any(nid == spare
                   for nid in deployment.master.assignment.values())

    def test_failover_skips_standby(self):
        env, cluster, deployment = build(n_nodes=6, spare_servers=1)
        spare = deployment.server_nodes[-1].node_id
        victim = deployment.server_nodes[0].node_id
        cluster.kill(victim)
        env.run(until=3.0)
        # The victim's regions failed over, none onto the standby spare.
        assert deployment.master.failovers
        assert all(nid not in (victim, spare)
                   for nid in deployment.master.assignment.values())

    def test_spare_count_validation(self):
        with pytest.raises(ValueError):
            build(n_nodes=3, spare_servers=2)
