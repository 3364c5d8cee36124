"""Geo-distributed topology (the paper's §6 future work).

The paper concludes that a single rack "cannot form a convincing testbed
for more complicated tests such as geo-read latency test, partition test
and availability test" and calls for a geo-distributed testbed.  This
module provides one: nodes are grouped into named datacenters, and
message latency between two nodes is looked up from a WAN latency matrix
instead of the in-rack constant.

Distances default to the three regions of Bermbach et al.'s experiment
(the consistency-measurement work the paper cites in §5): Western Europe,
Northern California, Singapore.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.nic import Nic
from repro.cluster.node import Node, NodeSpec
from repro.cluster.topology import Cluster, TimerWheel
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

__all__ = ["GeoCluster", "GeoSpec", "DEFAULT_REGION_RTTS"]

#: One-way latencies (seconds) between the example regions, roughly the
#: public round-trip figures halved: EU <-> US-West ~ 150 ms RTT,
#: EU <-> Singapore ~ 180 ms, US-West <-> Singapore ~ 170 ms.
DEFAULT_REGION_RTTS: dict[frozenset, float] = {
    frozenset({"eu-west", "us-west"}): 0.075,
    frozenset({"eu-west", "ap-southeast"}): 0.090,
    frozenset({"us-west", "ap-southeast"}): 0.085,
}


@dataclass(frozen=True)
class GeoSpec:
    """A multi-datacenter deployment description."""

    #: Datacenter name -> number of server nodes in it.
    datacenters: dict = field(default_factory=lambda: {
        "eu-west": 5, "us-west": 5, "ap-southeast": 5})
    #: One client node per listed datacenter, appended after the
    #: servers in this order.
    client_datacenters: tuple = ("eu-west",)
    #: One-way inter-DC latency (seconds), keyed by frozenset of DC names.
    region_latency_s: dict = field(
        default_factory=lambda: dict(DEFAULT_REGION_RTTS))
    #: One-way latency between nodes of the same DC (in-rack).
    local_latency_s: float = 0.00003
    #: Inter-DC usable bandwidth per flow (bytes/s) — WAN links are far
    #: thinner than the in-rack GigE.
    wan_bandwidth_bps: float = 30e6
    node: NodeSpec = field(default_factory=NodeSpec)


class _GeoNetwork:
    """Latency/bandwidth lookup across datacenters.

    Stands where the rack's :class:`repro.cluster.nic.Network` does (the
    message counter), and prices the hop itself: ``Cluster.leg`` calls
    :meth:`sample_latency` wherever ``node_datacenter`` is set, so the
    RPC layer and the databases work unmodified on a geo cluster.
    """

    def __init__(self, env: Environment, geo: "GeoCluster", rng) -> None:
        self.env = env
        self.geo = geo
        self._rng = rng
        self.messages = 0

    def sample_latency(self, src: Nic, dst: Nic, size: int = 0) -> float:
        """One hop delay draw, priced by the endpoints' datacenters.

        Cross-DC hops pay the configured region latency plus WAN
        serialization at the thinner inter-DC bandwidth.
        """
        src_dc = self.geo.datacenter_of_nic(src)
        dst_dc = self.geo.datacenter_of_nic(dst)
        spec = self.geo.spec
        if src_dc == dst_dc:
            base = spec.local_latency_s
            extra = 0.0
        else:
            # A degraded WAN stretches propagation and thins bandwidth
            # by the cluster's current wan_factor (1.0 = healthy).
            wan = self.geo.wan_factor
            base = spec.region_latency_s[frozenset({src_dc, dst_dc})] * wan
            # WAN serialization at the thinner inter-DC bandwidth.
            extra = size * wan / spec.wan_bandwidth_bps
        factor = 0.7 + self._rng.expovariate(1.0 / 0.6)
        return base * factor + extra


class GeoCluster(Cluster):
    """A :class:`~repro.cluster.topology.Cluster` spread over datacenters.

    Node ids are assigned datacenter by datacenter in the order of
    ``spec.datacenters``; the client node comes last (mirroring the
    single-rack layout, where the last node hosts the YCSB client).
    It builds its own nodes and fabric (so ``Cluster.__init__`` does not
    run) and inherits the transport unchanged: ``Cluster.leg`` books a
    leg's receiving half on arrival wherever ``node_datacenter`` says it
    crosses the WAN.
    """

    def __init__(self, env: Environment, spec: GeoSpec,
                 rngs: RngRegistry) -> None:
        self.env = env
        self.spec = spec
        self.rngs = rngs
        self.nodes: list[Node] = []
        #: node_id -> datacenter name.
        self.node_datacenter: dict[int, str] = {}
        self._nic_datacenter: dict[int, str] = {}
        node_id = 0
        for dc_name, count in spec.datacenters.items():
            for _ in range(count):
                node = Node(env, node_id, spec.node,
                            rngs.stream(f"disk.{node_id}"))
                self.nodes.append(node)
                self.node_datacenter[node_id] = dc_name
                self._nic_datacenter[id(node.nic)] = dc_name
                node_id += 1
        self.server_ids: list[int] = list(range(node_id))
        self.client_ids: list[int] = []
        #: Datacenter name -> its client node id (multi-region layouts).
        self._client_by_dc: dict[str, int] = {}
        for dc_name in spec.client_datacenters:
            if dc_name not in spec.datacenters:
                raise ValueError(f"client datacenter {dc_name!r} is not a "
                                 f"configured datacenter")
            if dc_name in self._client_by_dc:
                raise ValueError(f"duplicate client datacenter {dc_name!r}")
            client = Node(env, node_id, spec.node,
                          rngs.stream(f"disk.{node_id}"))
            self.nodes.append(client)
            self.node_datacenter[node_id] = dc_name
            self._nic_datacenter[id(client.nic)] = dc_name
            self.client_ids.append(node_id)
            self._client_by_dc[dc_name] = node_id
            node_id += 1

        #: WAN degradation multiplier applied to cross-DC latency and
        #: serialization (fault hook, like Nic.slowdown).  1.0 = healthy.
        self.wan_factor = 1.0
        self.network = _GeoNetwork(env, self, rngs.stream("geo.network"))
        self.rpc_count = 0
        #: Requests whose propagated deadline expired before the server
        #: started them (see :class:`repro.cluster.topology.Cluster`).
        self.abandoned_rpcs = 0
        self._wheel = TimerWheel(env)

    def partition_datacenter(self, dc_name: str) -> list[int]:
        """Cut a whole datacenter off (kill all its nodes); returns ids."""
        cut = [nid for nid, dc in self.node_datacenter.items()
               if dc == dc_name]
        for node_id in cut:
            self.kill(node_id)
        return cut

    def heal_datacenter(self, dc_name: str) -> None:
        for node_id, dc in self.node_datacenter.items():
            if dc == dc_name:
                self.restart(node_id)

    def datacenter_of(self, node_id: int) -> str:
        return self.node_datacenter[node_id]

    def datacenter_of_nic(self, nic: Nic) -> str:
        return self._nic_datacenter[id(nic)]

    def servers_in(self, dc_name: str) -> list[int]:
        """Server node ids of one datacenter (excludes client nodes)."""
        clients = set(self.client_ids)
        return [nid for nid, dc in self.node_datacenter.items()
                if dc == dc_name and nid not in clients]

    def client_in(self, dc_name: str) -> Node:
        """The client node hosted in ``dc_name``."""
        if dc_name not in self._client_by_dc:
            raise ValueError(f"no client node in datacenter {dc_name!r}")
        return self.nodes[self._client_by_dc[dc_name]]

    def degrade_wan(self, factor: float) -> None:
        """Stretch every cross-DC link by ``factor`` (fault hook)."""
        if factor < 1.0:
            raise ValueError(f"wan factor must be >= 1, got {factor}")
        self.wan_factor = factor

    def heal_wan(self) -> None:
        self.wan_factor = 1.0
