"""Unit tests for the ScaleEngine policy loop and the per-phase report.

The deployment behind the engine is a stub exposing the same
four-method surface as the real Cassandra/HBase deployments, so these
tests pin the *decision* logic (manual schedule resolution, breach /
idle hysteresis, cooldown, candidate exhaustion) and the report's phase
cutting without paying for a cluster.
"""

import pytest

from repro.cluster.elasticity import (ElasticityConfig, ScaleEngine,
                                      ScaleEventSpec, _transfer_windows,
                                      build_scale_report)
from repro.sim.kernel import Environment
from repro.ycsb.measurements import Measurements


class StubDeployment:
    """Four-method scale surface over two candidate pools."""

    def __init__(self, env, out_ids=(7,), in_ids=(3,), delay=0.5):
        self.env = env
        self._out = list(out_ids)
        self._in = list(in_ids)
        self.delay = delay
        self.applied = []

    def scale_out_candidate(self):
        return self._out[0] if self._out else None

    def scale_in_candidate(self):
        return self._in[0] if self._in else None

    def apply_scale_out(self, node_id):
        self._out.remove(node_id)
        self.applied.append(("out", node_id, self.env.now))
        yield self.env.timeout(self.delay)

    def apply_scale_in(self, node_id):
        self._in.remove(node_id)
        self.applied.append(("in", node_id, self.env.now))
        yield self.env.timeout(self.delay)


class TestSpecValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown scale action"):
            ScaleEventSpec(action="sideways")

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="at_s"):
            ScaleEventSpec(at_s=-1.0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            ScaleEventSpec(count=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown elasticity mode"):
            ElasticityConfig(mode="magic")

    def test_hysteresis_enforced(self):
        with pytest.raises(ValueError, match="hysteresis"):
            ElasticityConfig(p95_relax_ms=50.0, p95_breach_ms=50.0)

    def test_window_and_counts_validated(self):
        with pytest.raises(ValueError):
            ElasticityConfig(window_s=0.0)
        with pytest.raises(ValueError):
            ElasticityConfig(breach_windows=0)
        with pytest.raises(ValueError):
            ElasticityConfig(spare_nodes=-1)


class TestManualMode:
    def test_schedule_resolves_against_base(self):
        env = Environment()
        dep = StubDeployment(env, delay=0.5)
        engine = ScaleEngine(env, dep, ElasticityConfig(
            mode="manual", events=(ScaleEventSpec(action="out", at_s=2.0),)))
        engine.arm(base_s=1.0)
        env.run(until=10.0)
        assert dep.applied == [("out", 7, 3.0)]
        assert engine.log == [(3.0, "out_start", 7), (3.5, "out_done", 7)]

    def test_count_fires_sequentially(self):
        env = Environment()
        dep = StubDeployment(env, out_ids=(7, 8), delay=0.5)
        engine = ScaleEngine(env, dep, ElasticityConfig(
            mode="manual",
            events=(ScaleEventSpec(action="out", at_s=1.0, count=2),)))
        engine.arm(base_s=0.0)
        env.run(until=10.0)
        # The second activation starts only after the first's transfer.
        assert [e for _, e, _ in engine.log] == \
            ["out_start", "out_done", "out_start", "out_done"]
        assert [n for _, _, n in engine.log] == [7, 7, 8, 8]

    def test_exhausted_pool_logs_skip(self):
        env = Environment()
        dep = StubDeployment(env, out_ids=(), delay=0.5)
        engine = ScaleEngine(env, dep, ElasticityConfig(
            mode="manual", events=(ScaleEventSpec(action="out", at_s=1.0),)))
        engine.arm(base_s=0.0)
        env.run(until=5.0)
        assert engine.log == [(1.0, "out_skipped", -1)]
        assert dep.applied == []

    def test_static_mode_never_acts(self):
        env = Environment()
        dep = StubDeployment(env)
        engine = ScaleEngine(env, dep, ElasticityConfig(mode="static"))
        engine.arm(base_s=0.0)
        env.run(until=5.0)
        assert engine.log == [] and dep.applied == []


def _feed(env, measurements, latency_s, rate_per_s=20.0, until=60.0):
    """A process recording synthetic completions at a steady cadence."""
    def proc():
        while env.now < until:
            yield env.timeout(1.0 / rate_per_s)
            measurements.record("read", env.now, latency_s)
    return env.process(proc(), name="feeder")


def _auto_config(**overrides):
    base = dict(mode="auto", window_s=0.5, p95_breach_ms=50.0,
                breach_windows=2, p95_relax_ms=1.0, idle_windows=4,
                cooldown_s=5.0)
    base.update(overrides)
    return ElasticityConfig(**base)


class TestAutoscaler:
    def test_breach_scales_out(self):
        env = Environment()
        dep = StubDeployment(env, delay=0.5)
        m = Measurements()
        _feed(env, m, latency_s=0.200)
        engine = ScaleEngine(env, dep, _auto_config(), measurements=m)
        engine.arm(base_s=0.0)
        env.run(until=3.0)
        engine.stop()
        # Two consecutive 0.5s windows over the 50ms breach -> out at 1.0.
        assert dep.applied[0][:2] == ("out", 7)
        assert dep.applied[0][2] == pytest.approx(1.0)

    def test_idle_scales_in(self):
        env = Environment()
        dep = StubDeployment(env, delay=0.5)
        m = Measurements()
        _feed(env, m, latency_s=0.0002)
        engine = ScaleEngine(env, dep, _auto_config(), measurements=m)
        engine.arm(base_s=0.0)
        env.run(until=4.0)
        engine.stop()
        # Four consecutive idle windows -> in at 2.0.
        assert dep.applied[0][:2] == ("in", 3)
        assert dep.applied[0][2] == pytest.approx(2.0)

    def test_cooldown_separates_actions(self):
        env = Environment()
        dep = StubDeployment(env, out_ids=(7, 8), delay=0.1)
        m = Measurements()
        _feed(env, m, latency_s=0.200)
        engine = ScaleEngine(env, dep, _auto_config(cooldown_s=5.0),
                             measurements=m)
        engine.arm(base_s=0.0)
        env.run(until=8.0)
        engine.stop()
        assert len(dep.applied) == 2
        first, second = dep.applied
        assert second[2] - first[2] >= 5.0

    def test_healthy_middle_resets_both_counters(self):
        env = Environment()
        dep = StubDeployment(env)
        m = Measurements()
        # 10ms sits between relax (1ms) and breach (50ms): never acts.
        _feed(env, m, latency_s=0.010)
        engine = ScaleEngine(env, dep, _auto_config(), measurements=m)
        engine.arm(base_s=0.0)
        env.run(until=6.0)
        engine.stop()
        assert dep.applied == []

    def test_silent_windows_do_not_count(self):
        env = Environment()
        dep = StubDeployment(env)
        m = Measurements()
        engine = ScaleEngine(env, dep, _auto_config(), measurements=m)
        engine.arm(base_s=0.0)
        env.run(until=10.0)
        engine.stop()
        # No traffic at all: the policy loop stays its hand.
        assert dep.applied == []

    def test_auto_requires_measurements(self):
        env = Environment()
        engine = ScaleEngine(env, StubDeployment(env), _auto_config())
        with pytest.raises(ValueError, match="measurements"):
            engine.arm(base_s=0.0)


class TestTransferWindows:
    def test_pairs_by_node(self):
        log = [(1.0, "out_start", 7), (2.0, "out_done", 7),
               (5.0, "in_start", 3), (6.5, "in_done", 3)]
        assert _transfer_windows(log, run_end=10.0) == \
            [(1.0, 2.0), (5.0, 6.5)]

    def test_unpaired_start_runs_to_end(self):
        log = [(1.0, "out_start", 7)]
        assert _transfer_windows(log, run_end=4.0) == [(1.0, 4.0)]

    def test_skips_are_not_windows(self):
        log = [(1.0, "out_skipped", -1)]
        assert _transfer_windows(log, run_end=4.0) == []


class StubProbe:
    def __init__(self, reads):
        self.reads = reads
        self.probe_reads = len(reads)


class TestScaleReport:
    def _measurements(self, times):
        m = Measurements()
        m.started_at = 0.0
        for t in times:
            m.record("read", t, 0.001 * t)
        m.finished_at = 10.0
        return m

    def test_phase_cutting(self):
        m = self._measurements([0.5, 1.5, 2.5, 3.5, 9.0])
        log = [(1.0, "out_start", 7), (3.0, "out_done", 7)]
        report = build_scale_report(m, log, config=ElasticityConfig())
        phases = report["phases"]
        assert phases["before"]["ops"] == 1
        assert phases["during"]["ops"] == 2
        assert phases["after"]["ops"] == 2
        assert report["actions"] == 1 and report["skipped"] == 0
        assert report["transfer_s"] == pytest.approx(2.0)

    def test_between_phase_separates_two_transfers(self):
        m = self._measurements([4.0])
        log = [(1.0, "out_start", 7), (2.0, "out_done", 7),
               (5.0, "in_start", 3), (6.0, "in_done", 3)]
        report = build_scale_report(m, log, config=ElasticityConfig())
        assert report["phases"]["between"]["ops"] == 1

    def test_no_events_lands_everything_in_before(self):
        m = self._measurements([1.0, 5.0, 9.0])
        report = build_scale_report(
            m, [], config=ElasticityConfig(mode="static"))
        assert report["phases"]["before"]["ops"] == 3
        assert report["transfer_windows"] == []

    def test_staleness_attributed_per_phase(self):
        m = self._measurements([0.5, 2.0, 9.0])
        log = [(1.0, "out_start", 7), (3.0, "out_done", 7)]
        probe = StubProbe([(0.5, False), (2.0, True), (9.0, True)])
        report = build_scale_report(m, log, config=ElasticityConfig(),
                                    probe=probe)
        assert report["phases"]["before"]["stale_reads"] == 0
        assert report["phases"]["during"]["stale_reads"] == 1
        assert report["phases"]["after"]["stale_reads"] == 1
        assert report["stale_reads"] == 2
        assert report["probe_reads"] == 3

    def test_stream_totals(self):
        m = self._measurements([1.0])
        streams = [(2.0, 0, 4, 1000), (2.5, 1, 4, 500)]
        report = build_scale_report(m, [], config=ElasticityConfig(),
                                    streams=streams, rebalances=2)
        assert report["streamed_bytes"] == 1500
        assert report["stream_count"] == 2
        assert report["rebalances"] == 2
