"""Adaptive-consistency subsystem: monitor, policies, controller, and
the end-to-end paper-shape the campaign is judged by.

The paper-shape class is the acceptance contract: under a read-mostly
workload at RF 3 with a replica crash, StepwisePolicy's p95 read
latency is strictly below static QUORUM's while its oracle-checked
read-your-writes violation rate stays within the declared bound —
which static ONE breaks.
"""

from dataclasses import replace

import pytest

from repro.adaptive.controller import DecisionLog
from repro.adaptive.monitor import Monitor, RecentWrites, SloSpec
from repro.adaptive.policy import (ADAPTIVE_POLICIES, StalenessBoundPolicy,
                                   StaticPolicy, StepwisePolicy, make_policy)
from repro.adaptive.monitor import WindowStats
from repro.cassandra.consistency import ConsistencyLevel
from repro.core.runner import CellRunner, cell_fingerprint, execute_cell
from repro.core.sweep import CAMPAIGNS, campaign_cells, run_campaign

QUICK = CAMPAIGNS["adaptive"].quick

SLO = SloSpec(p95_ms=10.0, staleness_s=0.25, risk_rate=0.01, window_s=0.5)


class TestRecentWrites:
    def test_written_within_bound(self):
        sketch = RecentWrites(bound_s=0.25)
        sketch.note_write("k", 1.0)
        assert sketch.written_within("k", 1.2)
        assert not sketch.written_within("k", 1.3)
        assert not sketch.written_within("other", 1.0)

    def test_rewrite_refreshes(self):
        sketch = RecentWrites(bound_s=0.25)
        sketch.note_write("k", 1.0)
        sketch.note_write("k", 2.0)
        assert sketch.written_within("k", 2.2)

    def test_capacity_prunes_expired_then_oldest(self):
        sketch = RecentWrites(bound_s=10.0, capacity=3)
        for i, at in enumerate((1.0, 2.0, 3.0, 4.0)):
            sketch.note_write(f"k{i}", at)
        assert len(sketch) == 3
        # The oldest fresh entry was evicted, the newest survive.
        assert not sketch.written_within("k0", 4.0)
        assert sketch.written_within("k3", 4.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMonitor:
    def test_windows_align_to_multiples(self):
        clock = FakeClock()
        monitor = Monitor(SLO, clock)
        clock.now = 0.7
        monitor.observe_read_decision(at_risk=False, exposed=False)
        clock.now = 1.1
        monitor.observe_read_decision(at_risk=False, exposed=False)
        monitor.flush()
        assert [w.start_s for w in monitor.windows] == [0.5, 1.0]

    def test_decision_vs_completion_attribution(self):
        # A read decided just before a boundary whose latency lands
        # after it: the count (and risk) stay in the decision window,
        # the latency feeds the completion window.
        clock = FakeClock()
        monitor = Monitor(SLO, clock)
        clock.now = 0.49
        monitor.observe_read_decision(at_risk=True, exposed=True)
        clock.now = 0.51
        monitor.observe_read_latency(0.02)
        monitor.flush()
        first, second = monitor.windows
        assert (first.reads, first.exposed_reads) == (1, 1)
        assert first.read_p95_ms == 0.0
        assert second.reads == 0
        assert second.read_p95_ms == pytest.approx(20.0)

    def test_signal_deltas_and_gauges(self):
        clock = FakeClock()
        totals = {"read_repairs": 5, "hints_stored": 0, "hint_backlog": 2}
        monitor = Monitor(SLO, clock, signal_source=lambda: dict(totals))
        monitor.observe_read_decision(at_risk=False, exposed=False)
        totals["read_repairs"] = 9
        totals["hint_backlog"] = 7
        clock.now = 0.6
        monitor.observe_read_decision(at_risk=False, exposed=False)
        monitor.flush()
        first = monitor.windows[0]
        # Counters report per-window deltas; gauges report levels.
        assert first.signals["read_repairs"] == 4
        assert first.signals["hint_backlog"] == 7

    def test_on_window_hook_fires_per_closed_window(self):
        clock = FakeClock()
        monitor = Monitor(SLO, clock)
        seen = []
        monitor.on_window = lambda w: seen.append(w.start_s)
        monitor.observe_read_decision(at_risk=False, exposed=False)
        clock.now = 0.6
        monitor.observe_read_decision(at_risk=False, exposed=False)
        monitor.flush()
        assert seen == [0.0, 0.5]


def window(start_s=0.0, reads=100, exposed=0, p95_ms=1.0, signals=None):
    w = WindowStats(start_s=start_s, reads=reads, at_risk_reads=exposed,
                    exposed_reads=exposed, read_p95_ms=p95_ms)
    w.signals = signals or {}
    return w


class TestStepwisePolicy:
    def test_escalates_on_exposure_breach(self):
        policy = StepwisePolicy(SLO)
        policy.on_window(window(exposed=5))  # 5% > 1% risk rate
        assert policy.level is ConsistencyLevel.QUORUM
        policy.on_window(window(exposed=5))
        assert policy.level is ConsistencyLevel.ALL
        assert policy.escalations == 2

    def test_churn_breach_ceiling_is_quorum(self):
        policy = StepwisePolicy(SLO)
        churn = {"hints_stored": 40, "hint_backlog": 40}
        policy.on_window(window(signals=churn))
        policy.on_window(window(signals=churn))
        # Churn alone never climbs past QUORUM: a quorum already masks
        # the divergence being repaired.
        assert policy.level is ConsistencyLevel.QUORUM
        assert policy.escalations == 1

    def test_latency_breach_steps_down(self):
        policy = StepwisePolicy(SLO, start=ConsistencyLevel.QUORUM)
        policy.on_window(window(p95_ms=SLO.p95_ms * 2))
        assert policy.level is ConsistencyLevel.ONE
        assert policy.latency_steps == 1

    def test_decay_after_clean_windows(self):
        policy = StepwisePolicy(SLO, decay_windows=2,
                                start=ConsistencyLevel.QUORUM)
        policy.on_window(window())
        assert policy.level is ConsistencyLevel.QUORUM  # streak 1 of 2
        policy.on_window(window())
        assert policy.level is ConsistencyLevel.ONE
        assert policy.decays == 1

    def test_breach_resets_clean_streak(self):
        policy = StepwisePolicy(SLO, decay_windows=2)
        policy.on_window(window(exposed=5))  # -> QUORUM
        policy.on_window(window())
        policy.on_window(window(exposed=5))  # breach: exposure at QUORUM?
        # Exposure can out-climb churn's ceiling, up to ALL.
        assert policy.level is ConsistencyLevel.ALL

    def test_floor_is_one(self):
        assert StepwisePolicy(SLO).floor_cls() == (
            ConsistencyLevel.ONE, ConsistencyLevel.ONE)


class TestStalenessBoundPolicy:
    def test_at_risk_reads_quorum_others_one(self):
        policy = StalenessBoundPolicy(SLO)
        assert policy.decide_read("k", at_risk=True) \
            is ConsistencyLevel.QUORUM
        assert policy.decide_read("k", at_risk=False) is ConsistencyLevel.ONE
        assert policy.decide_write("k") is ConsistencyLevel.QUORUM
        assert (policy.quorum_reads, policy.fast_reads) == (1, 1)

    def test_hint_backlog_forces_quorum(self):
        # A rejoined replica missing writes is invisible to the sketch;
        # the outstanding hint backlog is the witness that forces the
        # safe level until handoff drains.
        policy = StalenessBoundPolicy(SLO)
        policy.on_window(window(signals={"hint_backlog": 3}))
        assert policy.decide_read("k", at_risk=False) \
            is ConsistencyLevel.QUORUM
        assert policy.backlog_quorum_reads == 1
        policy.on_window(window(signals={"hint_backlog": 0,
                                         "hints_stored": 0}))
        assert policy.decide_read("k", at_risk=False) is ConsistencyLevel.ONE

    def test_floor_is_one_read_quorum_write(self):
        assert StalenessBoundPolicy(SLO).floor_cls() == (
            ConsistencyLevel.ONE, ConsistencyLevel.QUORUM)


class TestPolicyRegistry:
    def test_all_names_resolve(self):
        for name in ADAPTIVE_POLICIES:
            assert make_policy(name, SLO).name == name

    def test_static_policies_fixed(self):
        policy = make_policy("static-quorum", SLO)
        assert isinstance(policy, StaticPolicy)
        assert policy.decide_read("k", at_risk=False) \
            is ConsistencyLevel.QUORUM

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive policy"):
            make_policy("vibes", SLO)


class TestDecisionLog:
    def fill(self):
        log = DecisionLog()
        log.record(0.1, "read", "k1", ConsistencyLevel.ONE)
        log.record(0.2, "write", "k1", ConsistencyLevel.QUORUM)
        log.record(0.7, "read", "k2", ConsistencyLevel.QUORUM)
        return log

    def test_counts_by_kind_and_cl(self):
        assert self.fill().counts() == {
            "read": {"ONE": 1, "QUORUM": 1},
            "write": {"QUORUM": 1},
        }

    def test_digest_depends_on_sequence(self):
        log, other = self.fill(), self.fill()
        assert log.digest() == other.digest()
        other.record(0.8, "read", "k3", ConsistencyLevel.ONE)
        assert log.digest() != other.digest()

    def test_timeline_buckets_align(self):
        assert self.fill().timeline(0.5) == [
            {"start_s": 0.0, "by_cl": {"ONE": 1, "QUORUM": 1}},
            {"start_s": 0.5, "by_cl": {"QUORUM": 1}},
        ]


@pytest.fixture(scope="module")
def quick_sweep():
    """All four policies at the calibrated quick load point."""
    return run_campaign("adaptive", scale=QUICK)


def _ryw_rate(summary):
    consistency = summary["consistency"]
    return (consistency["violations_by_kind"]["read_your_writes"]
            / max(1, consistency["reads"]))


class TestPaperShape:
    """The acceptance contract (read-mostly, RF 3, replica crash)."""

    TARGET = QUICK.targets[0]

    def test_stepwise_beats_quorum_p95_within_bound(self, quick_sweep):
        stepwise = quick_sweep["stepwise"][self.TARGET]
        quorum = quick_sweep["static-quorum"][self.TARGET]
        assert stepwise["decisions"]["read_p95_ms"] \
            < quorum["decisions"]["read_p95_ms"]
        assert _ryw_rate(stepwise) <= QUICK.slo.risk_rate
        # The ladder actually moved: escalations under the crash, steps
        # back down once the latency half of the SLO took over.
        counters = stepwise["decisions"]["policy_counters"]
        assert counters["escalations"] >= 1
        assert counters["latency_steps"] + counters["decays"] >= 1

    def test_static_one_violates_declared_bound(self, quick_sweep):
        static_one = quick_sweep["static-one"][self.TARGET]
        assert _ryw_rate(static_one) > QUICK.slo.risk_rate
        # ...and the violations are deep: the restarted replica served
        # state far staler than the declared bound.
        assert static_one["consistency"]["max_staleness_lag_s"] \
            > QUICK.slo.staleness_s

    def test_staleness_bound_zero_violations_beats_quorum(self, quick_sweep):
        bounded = quick_sweep["staleness-bound"][self.TARGET]
        quorum = quick_sweep["static-quorum"][self.TARGET]
        consistency = bounded["consistency"]
        assert consistency["violations_by_kind"]["read_your_writes"] == 0
        assert consistency["violations_by_kind"]["stale_read"] == 0
        assert consistency["max_staleness_lag_s"] \
            <= QUICK.slo.staleness_s
        assert bounded["decisions"]["read_p95_ms"] \
            < quorum["decisions"]["read_p95_ms"]
        # Only risk-free reads took the weak fast path.
        counters = bounded["decisions"]["policy_counters"]
        assert counters["fast_reads"] > 0
        assert counters["quorum_reads"] > 0

    def test_quorum_baselines_hold_their_guarantee(self, quick_sweep):
        quorum = quick_sweep["static-quorum"][self.TARGET]
        assert quorum["consistency"]["violations"] == 0

    def test_decision_mix_matches_coordinator_counters(self, quick_sweep):
        # The decision log and the coordinators must agree on how many
        # reads ran at each CL — the log is a record, not an intention.
        stepwise = quick_sweep["stepwise"][self.TARGET]
        by_cl = stepwise["decisions"]["by_cl"]["read"]
        assert len(by_cl) >= 2  # the ladder genuinely mixed levels


class TestDeterminismAndCacheability:
    SCALE = replace(CAMPAIGNS["adaptive"].full, targets=(1_200.0,),
                    duration_s=1.0)

    def cell(self):
        return campaign_cells("adaptive", scale=self.SCALE,
                              policies=("stepwise",))[0]

    def test_same_cell_twice_identical_digest(self):
        first = execute_cell(self.cell())
        second = execute_cell(self.cell())
        assert first["runs"][0]["decisions"]["digest"] \
            == second["runs"][0]["decisions"]["digest"]
        assert first == second

    def test_cell_cache_round_trip(self, tmp_path):
        spec = self.cell()
        assert cell_fingerprint(spec) == cell_fingerprint(self.cell())
        events = []
        runner = CellRunner(cache=True, cache_dir=tmp_path,
                            progress=events.append)
        fresh = runner.run([spec])
        cached = runner.run([spec])
        assert fresh == cached
        assert [e.cached for e in events] == [False, True]

    def test_parallel_matches_serial(self, tmp_path):
        cells = campaign_cells("adaptive", scale=self.SCALE,
                               policies=("static-one", "stepwise"))
        serial = CellRunner(jobs=1).run(cells)
        parallel = CellRunner(jobs=2).run(cells)
        assert serial == parallel
