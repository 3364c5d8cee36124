"""Cluster energy metering: integrate the power model over a window.

:class:`EnergyMeter` snapshots per-node counters (CPU core-seconds,
disk busy time, NIC channel busy time, power-state ledgers) at
``start()`` and prices the deltas at ``stop()``.  Baselines are keyed
by ``node_id`` and the node set is re-read from ``nodes_source`` at
stop, so the meter survives topology changes mid-window:

- a node that *joins* mid-run is charged from ``max(window start,
  node.created_at)`` with zero counter baselines;
- a node present at start keeps billing to the end of the window even
  if the cluster list no longer carries it — matching cloud billing,
  where an instance you provisioned costs money until the meter stops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.power import (CPU_W, DISK_W, IDLE_W, NIC_W,
                                PSTATE_IDLE_W, SLEEP_W)

__all__ = ["EnergyMeter", "EnergyReport"]


@dataclass(frozen=True)
class EnergyReport:
    """Joules consumed by the cluster over one measured window."""

    duration_s: float
    #: Awake-baseline energy (full ``IDLE_W`` draw while on/awake).
    idle_j: float
    cpu_j: float
    disk_j: float
    nic_j: float = 0.0
    #: Baseline energy spent parked (p-state + deep sleep draws).
    sleep_j: float = 0.0
    #: Sum over nodes of seconds-on-the-bill (for instance-hour cost).
    node_seconds: float = 0.0
    #: Power-state wake transitions over the window...
    wakes: int = 0
    #: ...and the sim-time latency they charged to requests.
    wake_latency_s: float = 0.0

    @property
    def total_j(self) -> float:
        return (self.idle_j + self.cpu_j + self.disk_j + self.nic_j
                + self.sleep_j)

    def joules_per_op(self, operations: int) -> float:
        """Joules per completed operation.

        ``inf`` when nothing completed: an all-errors window burned real
        energy and must not report as free.
        """
        if operations <= 0:
            return float("inf")
        return self.total_j / operations

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "idle_j": self.idle_j,
            "cpu_j": self.cpu_j,
            "disk_j": self.disk_j,
            "nic_j": self.nic_j,
            "sleep_j": self.sleep_j,
            "total_j": self.total_j,
            "node_seconds": self.node_seconds,
            "wakes": self.wakes,
            "wake_latency_s": self.wake_latency_s,
        }


class EnergyMeter:
    """Snapshots node counters and integrates power between them.

    ``nodes_source`` returns the cluster's current nodes; it is re-read
    at every snapshot so elasticity topology changes bill correctly.
    """

    def __init__(self, nodes_source) -> None:
        self._nodes_source = nodes_source
        self._start_time: float | None = None
        self._env = None
        #: node_id -> (node, cpu0, disk0, nic0, power-ledger snapshot).
        self._base: dict = {}

    @staticmethod
    def _ledger(power) -> tuple:
        return (power.awake_s, power.pstate_s, power.sleep_s,
                power.wakes, power.wake_latency_s)

    def start(self) -> None:
        nodes = list(self._nodes_source())
        if not nodes:
            raise ValueError("meter needs at least one node")
        self._env = nodes[0].env
        now = self._env.now
        self._start_time = now
        self._base = {}
        for node in nodes:
            power = node.power
            if power is not None:
                power.settle(now)
            self._base[node.node_id] = (
                node, node.cpu_time, node.disk.busy_time, node.nic.busy_s,
                self._ledger(power) if power is not None else None)

    def stop(self) -> EnergyReport:
        if self._start_time is None:
            raise RuntimeError("call start() before stop()")
        now = self._env.now
        start_t = self._start_time
        self._start_time = None
        duration = now - start_t
        if duration <= 0:
            return EnergyReport(0.0, 0.0, 0.0, 0.0)
        # Union of the billed-at-start set and the current topology:
        # joiners billed from creation, leavers billed to the end.
        billed = dict(self._base)
        for node in self._nodes_source():
            if node.node_id not in billed:
                billed[node.node_id] = (node, 0.0, 0.0, 0.0, None)
        idle_j = cpu_j = disk_j = nic_j = sleep_j = 0.0
        node_seconds = 0.0
        wakes = 0
        wake_latency_s = 0.0
        for node, cpu0, disk0, nic0, ledger0 in billed.values():
            joined = max(start_t, node.created_at)
            node_duration = now - joined
            if node_duration <= 0:
                continue
            node_seconds += node_duration
            # core-seconds / cores = average utilization * duration
            cpu_j += (CPU_W * max(0.0, node.cpu_time - cpu0)
                      / node.spec.cores)
            disk_j += DISK_W * max(0.0, node.disk.busy_time - disk0)
            nic_j += NIC_W * max(0.0, node.nic.busy_s - nic0)
            power = node.power
            if power is None:
                idle_j += IDLE_W * node_duration
                continue
            power.settle(now)
            a0, p0, s0, w0, wl0 = ledger0 or (0.0, 0.0, 0.0, 0, 0.0)
            idle_j += IDLE_W * max(0.0, power.awake_s - a0)
            sleep_j += (PSTATE_IDLE_W * max(0.0, power.pstate_s - p0)
                        + SLEEP_W * max(0.0, power.sleep_s - s0))
            wakes += power.wakes - w0
            wake_latency_s += power.wake_latency_s - wl0
        return EnergyReport(duration_s=duration, idle_j=idle_j, cpu_j=cpu_j,
                            disk_j=disk_j, nic_j=nic_j, sleep_j=sleep_j,
                            node_seconds=node_seconds, wakes=wakes,
                            wake_latency_s=wake_latency_s)
