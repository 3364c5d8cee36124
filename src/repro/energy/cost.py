"""Dollar pricing for energy reports: $/kWh + per-instance-hour.

Two bills add up: the electricity behind the measured joules (what a
datacenter owner pays) and the instance-hours the cluster occupied
(what a cloud tenant pays): :data:`USD_PER_KWH`, a typical
industrial-power rate, and :data:`USD_PER_NODE_HOUR`, an on-demand
price of the paper's era.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.meter import EnergyReport

__all__ = ["CostReport", "USD_PER_KWH", "USD_PER_NODE_HOUR", "price"]

#: Joules per kilowatt-hour.
_J_PER_KWH = 3.6e6
#: Electricity tariff, $/kWh.
USD_PER_KWH = 0.12
#: Instance price, $ per node-hour.
USD_PER_NODE_HOUR = 0.10


@dataclass(frozen=True)
class CostReport:
    """Dollars attributed to one measured window."""

    energy_usd: float
    instance_usd: float

    @property
    def total_usd(self) -> float:
        return self.energy_usd + self.instance_usd

    def usd_per_mops(self, operations: int) -> float:
        """Dollars per million completed operations (``inf`` when
        nothing completed — an all-errors window is not free)."""
        if operations <= 0:
            return float("inf")
        return self.total_usd / (operations / 1e6)

    def to_dict(self) -> dict:
        return {
            "energy_usd": self.energy_usd,
            "instance_usd": self.instance_usd,
            "total_usd": self.total_usd,
        }


def price(report: EnergyReport) -> CostReport:
    """``report``'s joules and node-seconds at the two tariffs."""
    return CostReport(
        energy_usd=report.total_j / _J_PER_KWH * USD_PER_KWH,
        instance_usd=report.node_seconds / 3600.0 * USD_PER_NODE_HOUR)
