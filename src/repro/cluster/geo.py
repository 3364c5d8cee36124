"""Geo-distributed topology (the paper's §6 future work).

The paper concludes that a single rack "cannot form a convincing testbed
for more complicated tests such as geo-read latency test, partition test
and availability test" and calls for a geo-distributed testbed.  This
module provides one: nodes are grouped into named datacenters, and
message latency between two nodes is looked up from a WAN latency matrix
instead of the in-rack constant.

Distances are those of the three regions of Bermbach et al.'s experiment
(the consistency-measurement work the paper cites in §5): Western Europe,
Northern California, Singapore.
"""

from __future__ import annotations

from repro.cluster.config import DEFAULT_REGION_RTTS, GeoConfig
from repro.cluster.nic import Nic
from repro.cluster.topology import Cluster, ClusterSpec
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry

__all__ = ["GeoCluster", "LOCAL_LATENCY_S", "WAN_BANDWIDTH_BPS"]

#: One-way latency between nodes of the same datacenter (in-rack).
LOCAL_LATENCY_S = 0.00003
#: Inter-DC usable bandwidth per flow (bytes/s) — WAN links are far
#: thinner than the in-rack GigE.
WAN_BANDWIDTH_BPS = 30e6


class _GeoNetwork:
    """Latency/bandwidth lookup across datacenters.

    Stands where the rack's :class:`repro.cluster.nic.Network` does (the
    message counter), and prices the hop itself: ``Cluster.leg`` calls
    :meth:`sample_latency` wherever ``node_datacenter`` is set, so the
    RPC layer and the databases work unmodified on a geo cluster.
    """

    def __init__(self, env: Environment, cluster: "GeoCluster",
                 rng) -> None:
        self.env = env
        self.cluster = cluster
        self._rng = rng
        self.messages = 0

    def sample_latency(self, src: Nic, dst: Nic, size: int) -> float:
        """One hop delay draw, priced by the endpoints' datacenters.

        Cross-DC hops pay the region latency plus WAN serialization at
        the thinner inter-DC bandwidth.
        """
        src_dc = self.cluster.datacenter_of_nic(src)
        dst_dc = self.cluster.datacenter_of_nic(dst)
        if src_dc == dst_dc:
            base = LOCAL_LATENCY_S
            extra = 0.0
        else:
            # A degraded WAN stretches propagation and thins bandwidth
            # by the cluster's current wan_factor (1.0 = healthy).
            wan = self.cluster.wan_factor
            base = DEFAULT_REGION_RTTS[frozenset({src_dc, dst_dc})] * wan
            # WAN serialization at the thinner inter-DC bandwidth.
            extra = size * wan / WAN_BANDWIDTH_BPS
        factor = 0.7 + self._rng.expovariate(1.0 / 0.6)
        return base * factor + extra


class GeoCluster(Cluster):
    """A :class:`~repro.cluster.topology.Cluster` spread over the
    datacenters of a :class:`GeoConfig` (kept as ``geo``).

    :meth:`Cluster.__init__` builds the nodes and, through
    :meth:`_fabric`, the WAN fabric in place of the rack's switch; the
    layout names the nodes datacenter by datacenter in the order of
    ``geo.datacenters``, then one client node per datacenter in the same
    order (as on a rack, the clients come last).  On top it adds the
    datacenter maps, and inherits the transport unchanged:
    ``Cluster.leg`` books a leg's receiving half on arrival wherever
    ``node_datacenter`` says it crosses the WAN.
    """

    def __init__(self, env: Environment, geo: GeoConfig,
                 rngs: RngRegistry) -> None:
        super().__init__(env, ClusterSpec(n_nodes=geo.total_nodes), rngs)
        self.geo = geo
        regions = [dc for dc, _ in geo.datacenters]
        n_servers = len(self.nodes) - len(regions)
        self.server_ids = list(range(n_servers))
        self.client_ids = list(range(n_servers, len(self.nodes)))
        #: node_id -> datacenter name.
        self.node_datacenter = dict(enumerate(
            [dc for dc, count in geo.datacenters for _ in range(count)]
            + regions))
        self._nic_datacenter = {id(self.nodes[node_id].nic): dc
                                for node_id, dc
                                in self.node_datacenter.items()}
        #: WAN degradation multiplier applied to cross-DC latency and
        #: serialization (fault hook, like Nic.slowdown).  1.0 = healthy.
        self.wan_factor = 1.0

    def _fabric(self) -> _GeoNetwork:
        return _GeoNetwork(self.env, self, self.rngs.stream("geo.network"))

    def datacenter_of(self, node_id: int) -> str:
        return self.node_datacenter[node_id]

    def datacenter_of_nic(self, nic: Nic) -> str:
        return self._nic_datacenter[id(nic)]

    def servers_in(self, dc_name: str) -> list[int]:
        """Server node ids of one datacenter (excludes client nodes)."""
        return [nid for nid in self.server_ids
                if self.node_datacenter[nid] == dc_name]

    def degrade_wan(self, factor: float) -> None:
        """Stretch every cross-DC link by ``factor`` (fault hook)."""
        if factor < 1.0:
            raise ValueError(f"wan factor must be >= 1, got {factor}")
        self.wan_factor = factor

    def heal_wan(self) -> None:
        self.wan_factor = 1.0
