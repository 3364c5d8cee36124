"""Tests for the perf-trajectory machinery (``repro-bench perf``).

Three claims must hold for BENCH_perf.json to mean anything:

- the calibrated stress cell is **deterministic** — two in-process runs
  produce byte-identical kernel schedules and summaries, so throughput
  deltas between reports are wall-clock deltas, never workload deltas;
- the **regression gate** trips on real throughput drops and only on
  them — schema drift and missing stages are advisory skips, not
  failures;
- the **CLI contract** (flags, artifact write, gate exit code) that the
  perf-smoke CI job scripts against stays stable.
"""

import json

import pytest

from repro.core.cli import build_parser, main
from repro.core.perf import (
    QUICK_PERF_SCALE,
    SCHEMA_VERSION,
    PerfScale,
    compare_to_baseline,
    perf_stress_config,
    run_perf_suite,
    run_stress_cell,
)

#: Small enough for test time, big enough to exercise every subsystem
#: the full cell touches (quorum fan-out, timers, zipfian keys, cache).
PIN_SCALE = QUICK_PERF_SCALE


class TestStressCellDeterminism:
    @pytest.fixture(scope="class")
    def two_runs(self):
        return (run_stress_cell(PIN_SCALE, trace=True),
                run_stress_cell(PIN_SCALE, trace=True))

    def test_kernel_schedule_is_byte_identical(self, two_runs):
        first, second = two_runs
        assert first["trace_digest"] == second["trace_digest"]
        assert first["trace_events"] == second["trace_events"]

    def test_summaries_and_event_counts_match(self, two_runs):
        first, second = two_runs
        assert first["summary"] == second["summary"]
        assert first["events"] == second["events"]
        assert first["ops"] == second["ops"]
        assert first["sim_duration_s"] == second["sim_duration_s"]

    def test_cell_actually_ran(self, two_runs):
        first, _ = two_runs
        # Measured ops exclude the warm-up fraction but must be most of
        # the configured count.
        assert 0 < first["ops"] <= PIN_SCALE.stress_operations
        assert first["ops"] >= PIN_SCALE.stress_operations // 2
        assert first["events"] > first["ops"]  # ops cost kernel events
        assert first["summary"]["p95_ms"] > 0

    def test_config_is_fixed_shape(self):
        config = perf_stress_config(PIN_SCALE)
        assert config.db == "cassandra"
        assert config.replication == 3
        assert config.seed == 42


def _report(stress_per_s: float, churn_per_s: float = 1e6,
            schema: int = SCHEMA_VERSION) -> dict:
    return {
        "schema": schema,
        "stages": {
            "event_churn": {"per_s": churn_per_s},
            "stress_cell": {"per_s": stress_per_s,
                            "events_per_s": stress_per_s * 12},
        },
    }


class TestRegressionGate:
    def test_equal_reports_pass(self):
        assert compare_to_baseline(_report(6000.0), _report(6000.0)) == []

    def test_improvement_passes(self):
        assert compare_to_baseline(_report(9000.0), _report(6000.0)) == []

    def test_small_wobble_within_threshold_passes(self):
        assert compare_to_baseline(_report(5000.0), _report(6000.0),
                                   max_regression=0.25) == []

    def test_real_regression_fails_with_named_metric(self):
        problems = compare_to_baseline(_report(4000.0), _report(6000.0),
                                       max_regression=0.25)
        assert problems
        assert any("stress_cell.per_s" in p for p in problems)

    def test_schema_mismatch_is_advisory_skip(self):
        problems = compare_to_baseline(_report(1.0, schema=SCHEMA_VERSION + 1),
                                       _report(6000.0))
        assert len(problems) == 1
        assert problems[0].startswith("skip:")

    def test_missing_stage_is_skipped(self):
        current = _report(6000.0)
        del current["stages"]["event_churn"]
        assert compare_to_baseline(current, _report(6000.0)) == []


class TestPerfCli:
    def test_perf_flags_parse(self):
        args = build_parser().parse_args(
            ["perf", "--quick", "--out", "x.json",
             "--baseline", "b.json", "--max-regression", "0.4"])
        assert args.command == "perf"
        assert args.quick is True
        assert args.out == "x.json"
        assert args.baseline == "b.json"
        assert args.max_regression == pytest.approx(0.4)

    def test_out_defaults_to_no_file(self):
        """A bare ``repro-bench perf`` from the repo root must not
        overwrite the committed ``BENCH_perf.json`` baseline."""
        assert build_parser().parse_args(["perf", "--quick"]).out is None

    @pytest.fixture(scope="class")
    def tiny_report(self, tmp_path_factory):
        """One real ``perf`` CLI run at a tiny scale, reused across tests."""
        scale = PerfScale(
            churn_events=2_000, timer_races=500, switches=1_000,
            fanin_rounds=200, keygen_ops=2_000, measure_samples=2_000,
            stress_records=400, stress_operations=400,
            stress_threads=8, stress_nodes=5)
        out = tmp_path_factory.mktemp("perf") / "BENCH_perf.json"
        import repro.core.cli as cli_mod
        import repro.core.perf as perf_mod
        orig = perf_mod.run_perf_suite

        def tiny_suite(scale_arg=None, quick=False, progress=None):
            return orig(scale=scale, quick=quick, progress=progress)

        perf_mod.run_perf_suite = tiny_suite
        cli_mod.run_perf_suite = tiny_suite
        try:
            code = main(["perf", "--quick", "--out", str(out)])
        finally:
            perf_mod.run_perf_suite = orig
            cli_mod.run_perf_suite = orig
        assert code == 0
        return json.loads(out.read_text())

    def test_artifact_has_gated_stages(self, tiny_report):
        assert tiny_report["schema"] == SCHEMA_VERSION
        stages = tiny_report["stages"]
        for name in ("event_churn", "timer_storm", "process_switch",
                     "fanin", "ycsb_keygen", "measurements", "stress_cell"):
            assert name in stages
            assert stages[name]["per_s"] > 0

    def test_gate_passes_against_own_artifact(self, tiny_report, tmp_path,
                                              capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(tiny_report))
        current = _report(
            tiny_report["stages"]["stress_cell"]["per_s"])
        # gate the artifact against itself through the library API — the
        # CLI path is already covered by the fixture's exit code.
        assert compare_to_baseline(tiny_report, json.loads(
            baseline.read_text())) == []
