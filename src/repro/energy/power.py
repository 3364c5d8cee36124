"""Per-node power model: utilization draws + a lazy power-state machine.

Model: each machine draws :data:`IDLE_W` watts while awake, plus a
utilization-proportional share of :data:`CPU_W` (all cores busy),
:data:`DISK_W` (spindle busy) and :data:`NIC_W` (a NIC channel
serializing).  The wattages approximate a dual-socket Xeon L5640 server
of the paper's era (~120 W idle, ~80 W CPU swing, ~10 W disk, ~5 W NIC).

Power management (``race_to_sleep`` mode) layers a three-state machine
on top of the awake baseline:

- **awake** — full :data:`IDLE_W` baseline; entered by any work, held
  for ``idle_after_s`` past the last activity;
- **p-state** — DVFS-dropped cores + spun-down disk at
  :data:`PSTATE_IDLE_W`; reached ``idle_after_s`` after the last
  activity, left after a deterministic :data:`PSTATE_WAKE_S` clock-ramp
  latency;
- **deep sleep** — suspend-to-RAM at :data:`SLEEP_W`; reached
  ``sleep_after_s`` after the last activity, left after ``sleep_wake_s``
  (disk spin-up dominates).

Every wake transition is charged in *sim time*, so power management
visibly costs tail latency — the classic race-to-sleep trade.

:class:`PowerManager` is deliberately environment-free: callers pass
absolute sim times in, and the state machine materializes its schedule
lazily (no background process), exactly like the node's GC schedule —
an idle simulation still terminates.  Accounting happens at every wake
and at every :meth:`settle`, which keeps the piecewise integral exact:
between two accounting points ``busy_until`` only ever describes one
contiguous activity epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CPU_W", "DISK_W", "IDLE_W", "NIC_W", "POWER_MODES",
           "PSTATE_IDLE_W", "PSTATE_WAKE_S", "PowerManager", "PowerSpec",
           "SLEEP_W"]

#: ``always_on`` — the meter's historical behavior: full idle draw
#: whenever the machine is on, no wake latency anywhere.
#: ``race_to_sleep`` — the state machine above, unconditionally.
POWER_MODES = ("always_on", "race_to_sleep")


#: Awake baseline draw, watts.
IDLE_W = 120.0
#: Draw of all cores busy, on top of the baseline.
CPU_W = 80.0
#: Draw of a busy spindle.
DISK_W = 10.0
#: Per-channel serialization draw; a saturated full-duplex NIC (egress
#: + ingress both busy) draws twice this.
NIC_W = 5.0
#: Baseline draw in the DVFS P-state (cores clocked down, disk spun
#: down, NIC in low-power idle).
PSTATE_IDLE_W = 70.0
#: Baseline draw in deep sleep (suspend-to-RAM).
SLEEP_W = 12.0
#: Deterministic wake latency out of the p-state (clock ramp), seconds.
PSTATE_WAKE_S = 0.002


@dataclass(frozen=True)
class PowerSpec:
    """The power-state thresholds a cell tunes to its time scale
    (seconds); the wattages and the p-state wake are the constants
    above."""

    #: Idle time before dropping awake -> p-state.
    idle_after_s: float = 0.01
    #: Idle time before dropping p-state -> deep sleep.
    sleep_after_s: float = 0.5
    #: Deterministic wake latency out of deep sleep (disk spin-up).
    sleep_wake_s: float = 0.3


#: Power-machine states, for introspection and tests.
AWAKE, PSTATE, SLEEP = "awake", "pstate", "sleep"


class PowerManager:
    """One node's power-state machine and baseline-energy ledger.

    Counters (``awake_s`` / ``pstate_s`` / ``sleep_s`` / ``wakes`` /
    ``wake_latency_s``) are monotone; the meter diffs snapshots, so one
    manager serves any number of measured windows.  The wake-transition
    interval itself is accounted as awake time (the machine burns full
    power while ramping up).
    """

    def __init__(self, spec: PowerSpec, mode: str,
                 now: float = 0.0) -> None:
        if mode not in POWER_MODES:
            raise ValueError(
                f"unknown power mode {mode!r}; choose from {POWER_MODES}")
        self.spec = spec
        self.mode = mode
        #: Absolute time of the end of the last known activity.  Tracked
        #: in both modes (a cheap ``max``), so switching an always-on
        #: node into race-to-sleep counts idleness from its real last
        #: activity, not from the switch.
        self.busy_until = now
        self._accounted_until = now
        self.awake_s = 0.0
        self.pstate_s = 0.0
        self.sleep_s = 0.0
        self.wakes = 0
        self.wake_latency_s = 0.0

    # -- state ---------------------------------------------------------

    def state(self, at: float) -> str:
        """The machine's power state at time ``at`` (no side effects)."""
        if self.mode == "always_on":
            return AWAKE
        gap = at - self.busy_until
        if gap < self.spec.idle_after_s:
            return AWAKE
        if gap < self.spec.sleep_after_s:
            return PSTATE
        return SLEEP

    # -- accounting ----------------------------------------------------

    def _account(self, until: float) -> None:
        """Advance the energy ledger from the last accounting point.

        Piecewise over the (at most three) states the machine passed
        through since: awake until ``busy_until + idle_after_s``,
        p-state until ``busy_until + sleep_after_s``, deep sleep for the
        remainder.  Idempotent: a repeated call with the same ``until``
        adds nothing.
        """
        t = self._accounted_until
        if until <= t:
            return
        self._accounted_until = until
        if self.mode == "always_on":
            self.awake_s += until - t
            return
        awake_edge = self.busy_until + self.spec.idle_after_s
        if t < awake_edge:
            edge = until if until < awake_edge else awake_edge
            self.awake_s += edge - t
            t = edge
        if t >= until:
            return
        pstate_edge = self.busy_until + self.spec.sleep_after_s
        if t < pstate_edge:
            edge = until if until < pstate_edge else pstate_edge
            self.pstate_s += edge - t
            t = edge
        if t < until:
            self.sleep_s += until - t

    def settle(self, now: float) -> None:
        """Bring the ledger current (meters call this at snapshots)."""
        self._account(now)

    # -- activity hooks ------------------------------------------------

    def wake_for_work(self, at: float) -> float:
        """Work wants to start at ``at``: return when it actually can.

        Awake (or always-on) machines start immediately; a parked
        machine pays the deterministic wake latency first.  A second
        arrival at the same instant sees the machine already waking and
        pays nothing extra — a transition is never double-charged.
        """
        if self.mode == "always_on":
            return at
        gap = at - self.busy_until
        if gap < self.spec.idle_after_s:
            return at
        penalty = (PSTATE_WAKE_S
                   if gap < self.spec.sleep_after_s
                   else self.spec.sleep_wake_s)
        self._account(at)
        self.wakes += 1
        self.wake_latency_s += penalty
        self.busy_until = at + penalty
        return at + penalty

    def note_busy(self, until: float) -> None:
        """Record activity lasting until the absolute time ``until``."""
        if until > self.busy_until:
            self.busy_until = until

    def set_mode(self, mode: str, at: float) -> None:
        """Switch power-management mode at time ``at``.

        Accounts under the old mode first.  Unparking (switching to
        ``always_on``) while not awake charges one wake transition at
        the switch — the operator's clock pre-warms the machine, so
        requests landing after the ramp see no wake latency.
        """
        if mode not in POWER_MODES:
            raise ValueError(
                f"unknown power mode {mode!r}; choose from {POWER_MODES}")
        if mode == self.mode:
            return
        self._account(at)
        if mode == "always_on":
            gap = at - self.busy_until
            if gap >= self.spec.idle_after_s:
                penalty = (PSTATE_WAKE_S
                           if gap < self.spec.sleep_after_s
                           else self.spec.sleep_wake_s)
                self.wakes += 1
                self.wake_latency_s += penalty
                self.busy_until = at + penalty
        self.mode = mode
