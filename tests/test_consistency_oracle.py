"""Consistency oracle: checker unit tests + paper-shape sweeps.

Two layers:

- unit tests drive the checkers over hand-built histories, pinning the
  semantics of the zone check (indeterminate writes optional, untracked
  reads legal only before any tracked write) and of the
  timestamp-based staleness/session checks;
- integration tests run real seed-exploration sweeps and assert the
  *shapes the paper's consistency model predicts*: strong configurations
  (HBase; Cassandra R+W > RF) are linearizable across the seed matrix,
  while CL ONE under a partition with repair disabled yields observable
  session violations — with a deterministic minimal reproducing seed —
  yet still converges once anti-entropy runs.
"""

from dataclasses import replace

import pytest

from repro.cluster.config import FaultSpec
from repro.cluster.failure import FailureInjector
from repro.consistency.checkers import check_history, check_linearizable_key
from repro.core.explorer import check_sweep
from repro.consistency.history import History, HistoryOp, HistoryRecorder
from repro.core.experiment import ExperimentSession
from repro.core.failover import PROBE_KEY, StalenessProbe
from repro.core.sweep import CAMPAIGNS, campaign_cells

pytestmark = pytest.mark.hashseed

QUICK = CAMPAIGNS["check"].quick


def _op(op_id, kind, invoke, response, *, value=None, ts=None,
        outcome="ok", session="s1", key="k"):
    return HistoryOp(op_id=op_id, session=session, kind=kind, key=key,
                     invoke_s=invoke, response_s=response, outcome=outcome,
                     value=value, timestamp=ts)


def _history(*ops):
    history = History()
    for op in ops:
        history.add(op)
    return history


class TestLinearizabilityChecker:
    def test_sequential_register_linearizes(self):
        ops = [_op(1, "write", 0.0, 1.0, value="a"),
               _op(2, "read", 2.0, 3.0, value="a"),
               _op(3, "write", 4.0, 5.0, value="b"),
               _op(4, "read", 6.0, 7.0, value="b")]
        violation = check_linearizable_key("k", ops)
        assert violation is None

    def test_stale_read_after_acked_write_refuted(self):
        ops = [_op(1, "write", 0.0, 1.0, value="a"),
               _op(2, "write", 2.0, 3.0, value="b"),
               _op(3, "read", 4.0, 5.0, value="a")]
        violation = check_linearizable_key("k", ops)
        assert violation is not None
        assert violation.kind == "linearizability"
        assert "op #3" in violation.detail

    def test_indeterminate_write_may_apply_or_not(self):
        base = [_op(1, "write", 0.0, 1.0, value="a"),
                _op(2, "write", 2.0, 3.0, value="b",
                    outcome="indeterminate")]
        applied = base + [_op(3, "read", 4.0, 5.0, value="b")]
        skipped = base + [_op(3, "read", 4.0, 5.0, value="a")]
        for ops in (applied, skipped):
            violation = check_linearizable_key("k", ops)
            assert violation is None

    def test_concurrent_writes_allow_either_order(self):
        for winner in ("a", "b"):
            ops = [_op(1, "write", 0.0, 10.0, value="a"),
                   _op(2, "write", 0.0, 10.0, value="b"),
                   _op(3, "read", 11.0, 12.0, value=winner)]
            violation = check_linearizable_key("k", ops)
            assert violation is None

    def test_lost_update_refuted(self):
        """A read finding no row after an acked write can never
        linearize (the register cannot return to its untracked state)."""
        ops = [_op(1, "write", 0.0, 1.0, value="a"),
               _op(2, "read", 2.0, 3.0, value=None)]
        violation = check_linearizable_key("k", ops)
        assert violation is not None

    def test_failed_write_imposes_no_constraint(self):
        ops = [_op(1, "write", 0.0, 1.0, value="a", outcome="fail"),
               _op(2, "read", 2.0, 3.0, value=None)]
        violation = check_linearizable_key("k", ops)
        assert violation is None


class TestSessionCheckers:
    def test_stale_read_by_timestamp(self):
        history = _history(
            _op(1, "write", 5.0, 6.0, value="w1"),
            _op(2, "read", 7.0, 8.0, value="old", ts=2.0, session="s2"))
        outcome = check_history(history, strong=False)
        assert outcome.count("stale_read") == 1
        # s2 never wrote, so its staleness is not a *session* violation.
        assert outcome.count("read_your_writes") == 0

    def test_read_your_writes_requires_own_write(self):
        history = _history(
            _op(1, "write", 5.0, 6.0, value="w1", session="s1"),
            _op(2, "read", 7.0, 8.0, value="old", ts=2.0, session="s1"))
        outcome = check_history(history, strong=False)
        assert outcome.count("read_your_writes") == 1

    def test_fresh_read_is_clean(self):
        history = _history(
            _op(1, "write", 5.0, 6.0, value="w1"),
            _op(2, "read", 7.0, 8.0, value="w1", ts=5.5))
        outcome = check_history(history, strong=False)
        assert not outcome.violations

    def test_monotonic_reads_regression(self):
        history = _history(
            _op(1, "read", 0.0, 1.0, value="b", ts=5.0),
            _op(2, "read", 2.0, 3.0, value="a", ts=3.0))
        outcome = check_history(history, strong=False)
        assert outcome.count("monotonic_reads") == 1

    def test_overlapping_reads_impose_no_order(self):
        history = _history(
            _op(1, "read", 0.0, 4.0, value="b", ts=5.0),
            _op(2, "read", 2.0, 3.0, value="a", ts=3.0))
        outcome = check_history(history, strong=False)
        assert outcome.count("monotonic_reads") == 0

    def test_strong_runs_linearizability_too(self):
        history = _history(
            _op(1, "write", 0.0, 1.0, value="a"),
            _op(2, "write", 2.0, 3.0, value="b"),
            _op(3, "read", 4.0, 5.0, value="a", ts=0.5))
        outcome = check_history(history, strong=True)
        assert outcome.count("linearizability") == 1
        assert outcome.count("stale_read") == 1


class TestPaperShapes:
    """The guarantees the paper's §4.3 modes imply, proven over seeds."""

    def test_quorum_is_linearizable_across_seeds(self):
        sweep = check_sweep("cassandra", mode="QUORUM", seeds=30,
                            scale=QUICK)
        assert sweep["violations_by_kind"]["linearizability"] == 0
        assert sweep["unexpected_violations"] == 0
        # The linearizability check ran on every seed.
        assert all(report["strong"] and report["checked"]["linearizability"]
                   for report in sweep["per_seed"].values())

    def test_write_all_read_one_is_linearizable_across_seeds(self):
        sweep = check_sweep("cassandra", mode="ALL", seeds=20,
                            scale=QUICK)
        assert sweep["violations_by_kind"]["linearizability"] == 0
        assert sweep["unexpected_violations"] == 0

    def test_hbase_is_strong_under_crash(self):
        sweep = check_sweep("hbase", mode="QUORUM", seeds=10, fault="crash",
                            scale=QUICK)
        assert sweep["unexpected_violations"] == 0

    def test_one_under_partition_violates_sessions_reproducibly(self):
        """CL ONE + partition + no repair: staleness must be observable,
        attributable to a minimal seed, and replay deterministically."""
        sweep = check_sweep("cassandra", mode="ONE", seeds=8,
                            fault="partition", no_repair=True,
                            scale=QUICK)
        assert sweep["session_violations"] >= 1
        assert sweep["min_repro_seed"] is not None
        assert sweep["replay_verified"] is True
        # Weak CL staleness is allowed — nothing here breaks a guarantee.
        assert sweep["unexpected_violations"] == 0
        assert sweep["violations_by_kind"]["linearizability"] == 0

    def test_one_converges_once_repair_runs(self):
        """With anti-entropy enabled the same partition still converges:
        hint replay + read repair close every divergence by settle."""
        sweep = check_sweep("cassandra", mode="ONE", seeds=6,
                            fault="partition", no_repair=False,
                            scale=QUICK)
        assert sweep["violations_by_kind"]["convergence"] == 0
        assert sweep["unexpected_violations"] == 0


class _StaleEveryThirdStore:
    """A minimal DbBinding whose every third read serves the previous
    version — a deterministic staleness source for the equivalence test
    below (values carry their write time, like a real replica)."""

    def __init__(self, env) -> None:
        self.env = env
        self.versions: list[tuple] = []
        self._reads = 0

    def write(self, key, value, size):
        yield self.env.timeout(0.01)
        self.versions.append((value, self.env.now))

    def read(self, key, size):
        yield self.env.timeout(0.01)
        self._reads += 1
        if not self.versions:
            return None
        if self._reads % 3 == 0 and len(self.versions) > 1:
            return self.versions[-2]
        return self.versions[-1]

    def scan(self, start_key, limit, record_bytes):
        yield self.env.timeout(0.01)
        return []


class TestProbeCheckerAgreement:
    """Satellite regression: the failover StalenessProbe and the history
    checker are two implementations of read-your-writes — routed through
    the same recorder, their counts must match exactly."""

    def test_probe_matches_checker_on_forced_staleness(self):
        """Deterministically stale store: both implementations must
        count exactly the same (nonzero) set of stale reads."""
        from repro.sim.kernel import Environment
        env = Environment()
        recorder = HistoryRecorder(_StaleEveryThirdStore(env), env,
                                   tag_writes=False)
        probe = StalenessProbe(env, recorder)
        env.process(probe.run(), name="staleness-probe")
        env.run(until=10.0)
        probe.stop()

        outcome = check_history(recorder.history, strong=False)
        assert probe.stale_reads > 0
        assert outcome.count("read_your_writes") == probe.stale_reads

    def test_probe_matches_checker_on_partitioned_run(self):
        """Real deployment under a partition of the probe key's own
        first replica: whatever staleness the schedule produces, the two
        counters agree."""
        config = campaign_cells("check", "cassandra", cl="ONE", seeds=(3,),
                                no_repair=True)[0].config
        config = replace(config, record_count=150, n_nodes=5)
        session = ExperimentSession(config)
        session.load()
        env = session.env
        # No tagging: the probe compares its own integer sequence values.
        recorder = HistoryRecorder(session.client, env, tag_writes=False)
        probe = StalenessProbe(env, recorder)
        target = session.deployment.replicas_of(PROBE_KEY)[0]
        injector = FailureInjector(session.cluster)
        injector.inject([FaultSpec(kind="partition", node_id=target,
                                   at_s=0.5, duration_s=2.0, span=1)],
                        base_s=env.now)
        env.process(probe.run(), name="staleness-probe")
        env.run(until=env.now + 8.0)
        probe.stop()

        outcome = check_history(recorder.history, strong=False)
        assert probe.probe_reads > 0
        assert outcome.count("read_your_writes") == probe.stale_reads
