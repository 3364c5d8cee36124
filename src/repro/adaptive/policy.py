"""Pluggable consistency-level policies for the adaptive controller.

A policy answers one question per request — *which CL should this
operation use?* — given the request's staleness risk (is the key
freshly written?) and the monitor's windowed state.  Three families,
mirroring the related work:

- :class:`StaticPolicy` — the paper's own §4.3 method: one fixed
  (read CL, write CL) pair for the whole run.  The baseline the
  adaptive policies are judged against.
- :class:`StepwisePolicy` — Zhu et al.'s latency-bounding ladder run in
  reverse: escalate ONE -> QUORUM -> ALL when a window shows staleness
  exposure beyond the SLO's tolerated rate, decay one level back after
  :data:`~repro.adaptive.monitor.DECAY_WINDOWS` consecutive clean
  windows, and step *down* a level
  when the latency half of the SLO breaks while staleness is clean.
- :class:`StalenessBoundPolicy` — Garcia-Recuero et al.'s
  quality-of-data bound per key: writes always at QUORUM, reads at
  QUORUM only while the key sits inside the declared staleness bound
  (per the client-side recent-writes sketch), ONE otherwise.  At RF 3,
  QUORUM reads over QUORUM writes are strong (R+W > N), so every
  at-risk read is served linearizably and only risk-free reads take the
  weak fast path.

Policies are deterministic state machines over deterministic inputs, so
a run's decision sequence is reproducible bit for bit — the property
``repro-bench adaptive`` caches and CI asserts.
"""

from __future__ import annotations

from repro.adaptive.config import ALL_POLICIES, SloSpec
from repro.adaptive.monitor import DECAY_WINDOWS, WindowStats
from repro.cassandra.consistency import ConsistencyLevel

__all__ = [
    "EnergyAwarePolicy",
    "Policy",
    "StalenessBoundPolicy",
    "StaticPolicy",
    "StepwisePolicy",
    "make_policy",
]

#: The escalation ladder, weakest first.
LADDER = (ConsistencyLevel.ONE, ConsistencyLevel.QUORUM,
          ConsistencyLevel.ALL)


class Policy:
    """Interface (and shared bookkeeping) for per-request CL policies."""

    name = "policy"

    def __init__(self, slo: SloSpec) -> None:
        self.slo = slo
        self.escalations = 0
        self.decays = 0
        self.latency_steps = 0

    def decide_read(self, key: str, at_risk: bool) -> ConsistencyLevel:
        raise NotImplementedError

    def decide_write(self, key: str) -> ConsistencyLevel:
        raise NotImplementedError

    def on_window(self, window: WindowStats) -> None:
        """Window-close hook (stepwise escalation lives here)."""

    def floor_cls(self) -> tuple[ConsistencyLevel, ConsistencyLevel]:
        """The weakest (read CL, write CL) this policy may ever issue —
        what the consistency oracle classifies the run's guarantee by."""
        raise NotImplementedError

    def counters(self) -> dict:
        """JSON-safe policy-state counters for the decision log."""
        return {"escalations": self.escalations, "decays": self.decays,
                "latency_steps": self.latency_steps}


class StaticPolicy(Policy):
    """Fixed CLs — the non-adaptive baseline."""

    def __init__(self, slo: SloSpec, read_cl: ConsistencyLevel,
                 write_cl: ConsistencyLevel) -> None:
        super().__init__(slo)
        self.read_cl = read_cl
        self.write_cl = write_cl
        self.name = f"static-{read_cl.value.lower()}"

    def decide_read(self, key: str, at_risk: bool) -> ConsistencyLevel:
        return self.read_cl

    def decide_write(self, key: str) -> ConsistencyLevel:
        return self.write_cl

    def floor_cls(self) -> tuple[ConsistencyLevel, ConsistencyLevel]:
        return self.read_cl, self.write_cl


class StepwisePolicy(Policy):
    """Escalate on staleness exposure, decay back after clean windows.

    State is one index into :data:`LADDER`, applied to reads and writes
    alike; it starts at the bottom, ONE.  A window *breaches* when the fraction of its reads that were
    both at risk (key written inside the staleness bound) and served at
    a weak CL exceeds ``slo.risk_rate``, or when the window's
    anti-entropy signals show the cluster actively repairing divergence
    (foreground read repairs, stored hints).  Breach -> one step up.
    :data:`DECAY_WINDOWS` consecutive clean windows -> one step down (the
    hysteresis that keeps the ladder from thrashing).  A latency-only
    breach (window p95 above the SLO with staleness clean) also steps
    down — Zhu et al.'s trade of consistency for latency.

    The steady-state shape this produces: under a read-only phase the
    ladder sits at ONE (nothing at risk); under sustained write traffic
    it oscillates — exposure detected at ONE escalates to QUORUM, the
    exposure vanishes (QUORUM covers it), :data:`DECAY_WINDOWS` clean
    windows later it probes ONE again — so the duty cycle at QUORUM is
    about ``DECAY_WINDOWS / (DECAY_WINDOWS + 1)``, and the latency
    distribution is the corresponding mixture of the two levels.
    """

    name = "stepwise"

    def __init__(self, slo: SloSpec) -> None:
        super().__init__(slo)
        self.level_index = 0
        self._clean_streak = 0

    @property
    def level(self) -> ConsistencyLevel:
        return LADDER[self.level_index]

    def decide_read(self, key: str, at_risk: bool) -> ConsistencyLevel:
        return self.level

    def decide_write(self, key: str) -> ConsistencyLevel:
        return self.level

    def _exposure_breach(self, window: WindowStats) -> bool:
        return window.exposed_fraction > self.slo.risk_rate

    def _churn_breach(self, window: WindowStats) -> bool:
        # Anti-entropy activity is the server-side staleness witness:
        # foreground repairs mean CL-blocking digests disagreed; stored
        # hints mean replicas are missing writes outright, and an
        # outstanding hint *backlog* means some replica is still missing
        # them (it may be back up and serving stale state).  Churn can
        # escalate only as far as QUORUM — a quorum already masks the
        # divergence being repaired, so climbing to ALL would pay ALL's
        # tail (and its unavailability under the very fault producing
        # the hints) for no added guarantee.
        signals = window.signals
        churn = (signals.get("read_repairs", 0)
                 + signals.get("hints_stored", 0)
                 + signals.get("hint_backlog", 0))
        reads = max(1, window.reads)
        return churn / reads > self.slo.risk_rate

    def on_window(self, window: WindowStats) -> None:
        exposure = self._exposure_breach(window)
        churn = self._churn_breach(window)
        if exposure or churn:
            self._clean_streak = 0
            ceiling = (len(LADDER) - 1 if exposure
                       else LADDER.index(ConsistencyLevel.QUORUM))
            if self.level_index < ceiling:
                self.level_index += 1
                self.escalations += 1
            return
        if window.read_p95_ms > self.slo.p95_ms and self.level_index > 0:
            # Latency half of the SLO broke with staleness clean: trade
            # consistency for latency, one step at a time.
            self._clean_streak = 0
            self.level_index -= 1
            self.latency_steps += 1
            return
        self._clean_streak += 1
        if self._clean_streak >= DECAY_WINDOWS \
                and self.level_index > 0:
            self.level_index -= 1
            self.decays += 1
            self._clean_streak = 0

    def floor_cls(self) -> tuple[ConsistencyLevel, ConsistencyLevel]:
        return LADDER[0], LADDER[0]

    def counters(self) -> dict:
        counters = super().counters()
        counters["final_level"] = self.level.value
        return counters


class StalenessBoundPolicy(Policy):
    """QoD-style per-key freshness bound.

    Writes always run at QUORUM; a read runs at QUORUM iff its key was
    written inside the declared staleness bound
    (:data:`~repro.adaptive.monitor.STALENESS_S`, per the shared
    recent-writes sketch), ONE otherwise.  QUORUM reads
    over QUORUM writes are strong at any RF (R + W > N), so at-risk
    reads can never observe staleness; a risk-free read's key has been
    quiet for the whole bound — every replica long since applied the
    fan-out mutation — so the weak fast path is safe *up to the
    declared bound*, which is exactly the contract's shape.

    The sketch alone cannot see a replica that missed writes while
    down: a QUORUM-acked write leaves no trace once it ages past the
    bound, yet a rejoining replica may still serve its pre-crash state
    at CL ONE with *unbounded* lag.  The coordinator does see it — the
    hinted-handoff backlog counts exactly the mutations some replica is
    missing — so while the latest window reports outstanding hints (or
    fresh hint writes), every read takes QUORUM regardless of the
    sketch.  That keeps the declared bound honest under faults, not
    just under races.
    """

    name = "staleness-bound"

    def __init__(self, slo: SloSpec) -> None:
        super().__init__(slo)
        self.quorum_reads = 0
        self.fast_reads = 0
        self.backlog_quorum_reads = 0
        self._hint_risk = False

    def on_window(self, window: WindowStats) -> None:
        signals = window.signals
        self._hint_risk = bool(signals.get("hint_backlog", 0)
                               or signals.get("hints_stored", 0))

    def decide_read(self, key: str, at_risk: bool) -> ConsistencyLevel:
        if self._hint_risk:
            self.backlog_quorum_reads += 1
            return ConsistencyLevel.QUORUM
        if at_risk:
            self.quorum_reads += 1
            return ConsistencyLevel.QUORUM
        self.fast_reads += 1
        return ConsistencyLevel.ONE

    def decide_write(self, key: str) -> ConsistencyLevel:
        return ConsistencyLevel.QUORUM

    def floor_cls(self) -> tuple[ConsistencyLevel, ConsistencyLevel]:
        return ConsistencyLevel.ONE, ConsistencyLevel.QUORUM

    def counters(self) -> dict:
        counters = super().counters()
        counters["quorum_reads"] = self.quorum_reads
        counters["fast_reads"] = self.fast_reads
        counters["backlog_quorum_reads"] = self.backlog_quorum_reads
        return counters


class EnergyAwarePolicy(StalenessBoundPolicy):
    """Staleness-bound CL routing plus replica power management.

    The CL half is exactly :class:`StalenessBoundPolicy` — the QoD
    bound already spends the staleness budget on the cheap read path,
    which is most of the energy win (ONE touches one replica's CPU,
    disk and NIC instead of a quorum's).  On top of it, the policy
    drives a parking actuator (bound by the experiment session): after
    a *clean* window — no hint risk, exposure within the SLO's rate,
    latency within the SLO — the managed replicas' power machines drop
    into race-to-sleep; any risky window unparks the whole fleet, so
    reads recovering from a breach do not also pay wake latency.

    Without a bound actuator (power management disabled in the config)
    the policy degrades to pure CL routing.
    """

    name = "energy-aware"

    def __init__(self, slo: SloSpec) -> None:
        super().__init__(slo)
        self._set_parked = None
        self.parked = False
        self.parks = 0
        self.unparks = 0

    def bind_actuator(self, set_parked) -> None:
        """Install the session's park/unpark callable
        (``set_parked(parked: bool)``)."""
        self._set_parked = set_parked

    def on_window(self, window: WindowStats) -> None:
        super().on_window(window)
        if self._set_parked is None:
            return
        risky = (self._hint_risk
                 or window.exposed_fraction > self.slo.risk_rate
                 or window.read_p95_ms > self.slo.p95_ms)
        if risky and self.parked:
            self.parked = False
            self.unparks += 1
            self._set_parked(False)
        elif not risky and not self.parked:
            self.parked = True
            self.parks += 1
            self._set_parked(True)

    def counters(self) -> dict:
        counters = super().counters()
        counters["parks"] = self.parks
        counters["unparks"] = self.unparks
        counters["parked"] = self.parked
        return counters


def make_policy(name: str, slo: SloSpec) -> Policy:
    """Instantiate a policy by registry name (the RunSpec-level handle,
    so cell specs stay picklable and JSON-describable)."""
    if name == "static-one":
        return StaticPolicy(slo, ConsistencyLevel.ONE, ConsistencyLevel.ONE)
    if name == "static-quorum":
        return StaticPolicy(slo, ConsistencyLevel.QUORUM,
                            ConsistencyLevel.QUORUM)
    if name == "stepwise":
        return StepwisePolicy(slo)
    if name == "staleness-bound":
        return StalenessBoundPolicy(slo)
    if name == "energy-aware":
        return EnergyAwarePolicy(slo)
    raise ValueError(f"unknown adaptive policy {name!r}; "
                     f"choose from {ALL_POLICIES}")
