"""The records the adaptive controller takes: the SLO it steers by
(:class:`SloSpec`) and the policy names a run may arm
(:data:`ADAPTIVE_POLICIES`, :data:`ALL_POLICIES`).

They live apart from :mod:`repro.adaptive.monitor` and
:mod:`repro.adaptive.policy` so that a cell's config
(:mod:`repro.core.config`) and the campaign table can name them without
compiling the controller; only a run that names a policy imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ADAPTIVE_POLICIES", "ALL_POLICIES", "SloSpec"]


@dataclass(frozen=True)
class SloSpec:
    """The declared service-level objective the controller steers by:
    "p95 read latency <= ``p95_ms`` AND staleness <=
    :data:`~repro.adaptive.monitor.STALENESS_S` / exposed-read rate <=
    ``risk_rate``".  An experiment's ``config.adaptive``; only consulted
    when a run names a policy (:attr:`repro.core.runner.RunSpec.adaptive`),
    otherwise inert.
    """

    #: Latency half: p95 read latency must stay at or below this.
    p95_ms: float = 10.0
    #: No more than this fraction of a window's reads may be *exposed*
    #: to the staleness bound (an at-risk read served at a weak CL).
    risk_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.p95_ms <= 0:
            raise ValueError("p95_ms must be positive")
        if not 0 <= self.risk_rate <= 1:
            raise ValueError("risk_rate must be in [0, 1]")


#: Policy names ``repro-bench adaptive`` sweeps (stable order: the two
#: static baselines first, then the adaptive contenders).
ADAPTIVE_POLICIES = ("static-one", "static-quorum", "stepwise",
                     "staleness-bound")

#: Every registered policy name (``repro-bench energy`` adds the
#: energy-aware contender; the adaptive campaign keeps its stable
#: four-policy matrix).
ALL_POLICIES = ADAPTIVE_POLICIES + ("energy-aware",)
