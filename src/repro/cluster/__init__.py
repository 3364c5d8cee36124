"""Simulated cluster hardware substrate.

Models the paper's testbed: 16 server-class machines in one rack — each
with two Xeon L5640 processors (24 logical cores), 32 GB RAM, one hard
drive and a gigabit ethernet connection — wired through a single rack
switch.  Every database operation consumes simulated CPU time, disk
service time and NIC serialization time on the nodes it touches, so
saturation and queueing delays emerge from contention rather than from
fitted curves.
"""

from repro.cluster.disk import Disk, DiskSpec
from repro.energy import EnergyMeter, EnergyReport, PowerSpec
from repro.cluster.failure import (FAULT_KINDS, CrashEvent, CrashFault,
                                   DiskDegradeFault, FailureInjector,
                                   FaultSchedule, FaultSpec, FlapFault,
                                   NicDegradeFault, PartitionFault)
from repro.cluster.geo import GeoCluster, GeoSpec
from repro.cluster.nic import Network, NetworkSpec, Nic
from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import Cluster, ClusterSpec, DeadNodeError, RpcTimeout

__all__ = [
    "Cluster",
    "ClusterSpec",
    "CrashEvent",
    "CrashFault",
    "DeadNodeError",
    "Disk",
    "DiskDegradeFault",
    "DiskSpec",
    "EnergyMeter",
    "EnergyReport",
    "FAULT_KINDS",
    "FailureInjector",
    "FaultSchedule",
    "FaultSpec",
    "FlapFault",
    "NicDegradeFault",
    "PartitionFault",
    "GeoCluster",
    "GeoSpec",
    "Network",
    "NetworkSpec",
    "Nic",
    "Node",
    "NodeSpec",
    "PowerSpec",
    "RpcTimeout",
]
