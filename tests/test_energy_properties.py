"""Property-based tests (hypothesis) for the power-state machine.

The :class:`~repro.energy.power.PowerManager` is a lazy piecewise
integrator: it only materialises state-time when someone accounts, and
its correctness contract is that no matter how wake/busy/settle calls
interleave, the awake/pstate/sleep ledger always sums to exactly the
accounted span and every transition is charged exactly once.  Those
are the invariants this file drives with generated schedules.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.energy.meter import EnergyMeter, EnergyReport
from repro.energy.power import PowerManager, PowerSpec

#: Inter-arrival gaps: from sub-threshold busy bursts to deep-sleep
#: stretches, all well-behaved floats.
gaps = st.floats(min_value=0.0, max_value=5.0,
                 allow_nan=False, allow_infinity=False)
work = st.floats(min_value=0.0, max_value=0.1,
                 allow_nan=False, allow_infinity=False)


def _drive(manager: PowerManager, schedule) -> float:
    """Replay (gap, work) pairs as a wake/busy history; returns the
    clock after the last charged interval."""
    now = 0.0
    for gap, duration in schedule:
        now += gap
        start = manager.wake_for_work(now)
        end = start + duration
        manager.note_busy(end)
        now = end
    return now


class TestPowerLedgerProperties:
    @given(st.lists(st.tuples(gaps, work), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_ledger_sums_to_accounted_span(self, schedule):
        manager = PowerManager(PowerSpec(), mode="race_to_sleep")
        now = _drive(manager, schedule)
        settle_at = now + 2.0
        manager.settle(settle_at)
        total = manager.awake_s + manager.pstate_s + manager.sleep_s
        assert abs(total - settle_at) < 1e-6

    @given(st.lists(st.tuples(gaps, work), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_always_on_is_all_awake(self, schedule):
        manager = PowerManager(PowerSpec(), mode="always_on")
        now = _drive(manager, schedule)
        manager.settle(now + 1.0)
        assert abs(manager.awake_s - (now + 1.0)) < 1e-6
        assert manager.pstate_s == 0.0
        assert manager.sleep_s == 0.0
        assert manager.wakes == 0

    @given(st.lists(st.tuples(gaps, work), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_settle_is_idempotent(self, schedule):
        manager = PowerManager(PowerSpec(), mode="race_to_sleep")
        now = _drive(manager, schedule)
        manager.settle(now + 3.0)
        ledger = (manager.awake_s, manager.pstate_s, manager.sleep_s,
                  manager.wakes, manager.wake_latency_s)
        manager.settle(now + 3.0)
        manager.settle(now + 1.0)  # older settles must be no-ops too
        assert (manager.awake_s, manager.pstate_s, manager.sleep_s,
                manager.wakes, manager.wake_latency_s) == ledger

    @given(st.lists(st.tuples(gaps, work), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_never_double_charges_a_transition(self, schedule):
        # Every wake penalty corresponds to one state transition out of
        # pstate/sleep: the count of charged wakes can never exceed the
        # number of gaps long enough to leave the awake state, and a
        # second wake at the same timestamp must be free.
        spec = PowerSpec()
        manager = PowerManager(spec, mode="race_to_sleep")
        eligible = sum(1 for gap, _ in schedule if gap >= spec.idle_after_s)
        now = _drive(manager, schedule)
        assert manager.wakes <= eligible
        before = (manager.wakes, manager.wake_latency_s)
        resumed = manager.wake_for_work(now)
        assert resumed == now  # busy_until == now: machine is awake
        assert (manager.wakes, manager.wake_latency_s) == before

    @given(st.lists(st.tuples(gaps, work), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_wake_latency_matches_transition_kinds(self, schedule):
        # Total wake latency decomposes exactly into the two penalty
        # tariffs — there is no third, unpriced way to wake up.
        spec = PowerSpec()
        manager = PowerManager(spec, mode="race_to_sleep")
        pstate_wakes = sleep_wakes = 0
        now = 0.0
        for gap, duration in schedule:
            now += gap
            state = manager.state(now)
            start = manager.wake_for_work(now)
            if state == "pstate":
                pstate_wakes += 1
            elif state == "sleep":
                sleep_wakes += 1
            else:
                assert start == now
            end = start + duration
            manager.note_busy(end)
            now = end
        assert manager.wakes == pstate_wakes + sleep_wakes
        expected = (pstate_wakes * spec.pstate_wake_s
                    + sleep_wakes * spec.sleep_wake_s)
        assert abs(manager.wake_latency_s - expected) < 1e-9


class TestEnergyReportProperties:
    joules = st.floats(min_value=0.0, max_value=1e6,
                       allow_nan=False, allow_infinity=False)

    @given(joules, joules, joules, joules, joules)
    @settings(max_examples=100, deadline=None)
    def test_total_is_the_decomposition(self, idle, cpu, disk, nic, sleep):
        report = EnergyReport(duration_s=1.0, idle_j=idle, cpu_j=cpu,
                              disk_j=disk, nic_j=nic, sleep_j=sleep)
        assert report.total_j == idle + cpu + disk + nic + sleep
        assert report.to_dict()["total_j"] == report.total_j

    @given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
           st.floats(min_value=1.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_duration(self, duration, factor):
        """A longer idle window can only cost more joules."""

        def bill(seconds: float) -> float:
            spec = PowerSpec()
            manager = PowerManager(spec, mode="race_to_sleep")
            manager.settle(seconds)
            return (spec.idle_w * manager.awake_s
                    + spec.pstate_idle_w * manager.pstate_s
                    + spec.sleep_w * manager.sleep_s)

        assert bill(duration * factor) >= bill(duration) - 1e-9

    @given(st.lists(st.tuples(gaps, work), max_size=30),
           st.integers(min_value=0, max_value=29))
    @settings(max_examples=60, deadline=None)
    @example(schedule=[(0.5, 0.008212679814367954), (0.5, 0.0)], index=0)
    def test_monotone_in_utilization(self, schedule, index):
        """Extending one busy burst never lowers the awake share."""
        if index >= len(schedule):
            index = 0
        busier = list(schedule)
        if busier:
            gap, duration = busier[index]
            busier[index] = (gap, duration + 0.05)

        def awake_after(sched) -> tuple:
            manager = PowerManager(PowerSpec(), mode="race_to_sleep")
            now = _drive(manager, sched)
            manager.settle(now + 2.0)
            return manager.awake_s, now

        base_awake, _ = awake_after(schedule)
        more_awake, _ = awake_after(busier)
        # A gap equal to a parking threshold to the last float bit lands
        # on either side of it by the rounding of ``(now + gap) - now``,
        # and the busier schedule shifts ``now``: each such gap may
        # swing the awake share by at most one deep-sleep wake.
        spec = PowerSpec()
        on_edge = sum(1 for gap, _ in schedule
                      if min(abs(gap - spec.idle_after_s),
                             abs(gap - spec.sleep_after_s)) < 1e-9)
        assert more_awake >= base_awake - 1e-9 - on_edge * spec.sleep_wake_s
