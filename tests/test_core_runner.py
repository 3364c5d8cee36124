"""Tests for the parallel sweep runner and its cell cache."""

import json
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.config import FaultSpec
from repro.cluster.failure import FailureInjector
from repro.core import runner as runner_module
from repro.core.config import (config_to_dict, config_to_json,
                               default_micro_config, default_stress_config)
from repro.core.runner import (CellRunner, CellSpec, RunSpec, cell_fingerprint,
                               code_version, execute_cell)
from repro.core.experiment import ExperimentSession
from repro.core.sweep import CAMPAIGNS, run_campaign
from repro.ycsb.workload import MICRO_WORKLOADS, STRESS_WORKLOADS

DYING_LABEL = "sweep/worker-dies"


def _die_on_dying_label(spec):
    """Stands in for the runner's cell entrypoint in a forked worker
    (module-level, so the pool can pickle it by name): the worker
    running ``DYING_LABEL`` exits hard, the others return at once."""
    if spec.label == DYING_LABEL:
        os._exit(1)
    return {"runs": [], "kernel": {}}, 0.0

QUICK = CAMPAIGNS["fig2"].quick

#: Trimmed further below --quick so the always-on equivalence tests
#: stay cheap; the full --quick scale runs in the opt-in speedup test.
TINY_SCALE = replace(QUICK, record_count=1_500, operation_count=300,
                     targets=(500.0, None))


def small_cell(seed=42, workloads=("read",)):
    config = default_micro_config("cassandra", "read", seed=seed)
    config = replace(config, record_count=400, operation_count=120,
                     n_nodes=5, n_threads=4)
    return CellSpec(key=seed, label=f"cell/seed={seed}", config=config,
                    runs=tuple(RunSpec(workload=w) for w in workloads),
                    warm=(RunSpec(workload="read", operation_count=60),))


class TestConfigSerialization:
    def test_config_to_dict_is_json_safe(self):
        config = default_stress_config("cassandra")
        json.dumps(config_to_dict(config))  # must not raise

    def test_enums_become_values(self):
        config = default_stress_config("cassandra")
        as_dict = config_to_dict(config)
        assert as_dict["cassandra"]["read_cl"] == "ONE"
        assert "hbase" not in as_dict

    def test_replication_reflected(self):
        config = default_stress_config("hbase")
        d1 = config_to_dict(config)
        d3 = config_to_dict(config.with_replication(5))
        assert d1 != d3
        assert d3["hbase"]["replication"] == 5

    def test_canonical_json_is_stable(self):
        config = default_micro_config("hbase")
        assert config_to_json(config) == config_to_json(config)
        assert config_to_json(config).count("\n") == 0


class TestFingerprint:
    def test_key_and_label_are_not_identity(self):
        a = small_cell()
        b = replace(a, key="other", label="renamed")
        assert cell_fingerprint(a) == cell_fingerprint(b)

    def test_seed_changes_fingerprint(self):
        assert (cell_fingerprint(small_cell(seed=1))
                != cell_fingerprint(small_cell(seed=2)))

    def test_run_sequence_changes_fingerprint(self):
        assert (cell_fingerprint(small_cell(workloads=("read",)))
                != cell_fingerprint(small_cell(workloads=("read", "update"))))

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)  # hex digest prefix


class TestExecuteCell:
    def test_payload_shape(self):
        payload = execute_cell(small_cell(workloads=("read", "update")))
        assert [r["workload"] for r in payload["runs"]] == ["micro_read",
                                                            "micro_update"]
        for summary in payload["runs"]:
            assert summary["ops"] > 0
            assert summary["mean_ms"] > 0
        # JSON-safe by construction (the cache stores it verbatim).
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_workload_rejected(self):
        cell = small_cell()
        bad = replace(cell, runs=(RunSpec(workload="nope"),))
        with pytest.raises(ValueError, match="nope"):
            execute_cell(bad)

    def test_one_lookup_resolves_every_workload(self):
        # The two registries share no name, so a run names one workload.
        assert not set(MICRO_WORKLOADS) & set(STRESS_WORKLOADS)
        bad = replace(small_cell(), runs=(RunSpec(workload="nope"),))
        with pytest.raises(ValueError) as info:
            execute_cell(bad)
        for name in (*MICRO_WORKLOADS, *STRESS_WORKLOADS):
            assert repr(name) in str(info.value)

    def test_a_warm_run_arms_nothing(self, monkeypatch):
        """The config's crash fault is armed once, at the start of the
        measured run, although the warm run outlasts its ``at_s``."""
        fault = FaultSpec(kind="crash", at_s=0.01, duration_s=0.05)
        cell = small_cell()
        cell = replace(cell, config=replace(cell.config, faults=(fault,)))
        starts, armed = [], []
        run_cell = ExperimentSession.run_cell
        inject = FailureInjector.inject

        def record_start(session, *args, **kwargs):
            starts.append(session.env.now)
            return run_cell(session, *args, **kwargs)

        def record_base(injector, specs, base_s=0.0):
            armed.append(base_s)
            return inject(injector, specs, base_s)

        monkeypatch.setattr(ExperimentSession, "run_cell", record_start)
        monkeypatch.setattr(FailureInjector, "inject", record_base)
        payload = execute_cell(cell)
        warm_start, measured_start = starts
        assert measured_start - warm_start > fault.at_s
        assert armed == [measured_start]
        assert "failover" in payload["runs"][0]


class TestSerialParallelEquivalence:
    """The tentpole guarantee: N processes, bit-identical results."""

    def test_fig2_parallel_equals_serial(self):
        serial = run_campaign("fig2", "cassandra", TINY_SCALE, rfs=[1, 2])
        par = run_campaign("fig2", "cassandra", TINY_SCALE, rfs=[1, 2],
                           runner=CellRunner(jobs=4))
        assert serial == par
        assert (json.dumps(serial, sort_keys=True, default=repr)
                == json.dumps(par, sort_keys=True, default=repr))

    def test_fig1_and_fig3_parallel_equal_serial(self):
        scale = replace(TINY_SCALE, record_count=800, operation_count=200)
        assert (run_campaign("fig1", "hbase", scale, rfs=[1, 2])
                == run_campaign("fig1", "hbase", scale, rfs=[1, 2],
                                runner=CellRunner(jobs=2)))
        assert (run_campaign("fig3", scale=scale)
                == run_campaign("fig3", scale=scale,
                                runner=CellRunner(jobs=3)))

    @pytest.mark.skipif(os.cpu_count() < 4,
                        reason="speedup needs >= 4 CPU cores")
    def test_quick_fig2_jobs4_identical_and_faster(self):
        started = time.perf_counter()
        serial = run_campaign("fig2", "cassandra", QUICK,
                              rfs=[1, 3, 6])
        serial_s = time.perf_counter() - started
        started = time.perf_counter()
        par = run_campaign("fig2", "cassandra", QUICK, rfs=[1, 3, 6],
                           runner=CellRunner(jobs=4))
        parallel_s = time.perf_counter() - started
        assert serial == par
        assert serial_s / parallel_s >= 1.5


class TestCellCache:
    def test_second_run_hits_cache(self, tmp_path):
        events = []
        runner = CellRunner(cache=True, cache_dir=tmp_path,
                            progress=events.append)
        started = time.perf_counter()
        cold = run_campaign("fig2", "cassandra", TINY_SCALE, rfs=[1, 2],
                            runner=runner)
        cold_s = time.perf_counter() - started
        assert [e.cached for e in events] == [False, False]

        events.clear()
        runner = CellRunner(cache=True, cache_dir=tmp_path,
                            progress=events.append)
        started = time.perf_counter()
        warm = run_campaign("fig2", "cassandra", TINY_SCALE, rfs=[1, 2],
                            runner=runner)
        warm_s = time.perf_counter() - started
        assert warm == cold
        assert [e.cached for e in events] == [True, True]
        assert warm_s < cold_s * 0.1

    def test_different_seed_misses_cache(self, tmp_path):
        runner = CellRunner(cache=True, cache_dir=tmp_path)
        runner.run([small_cell(seed=1)])
        events = []
        runner = CellRunner(cache=True, cache_dir=tmp_path,
                            progress=events.append)
        runner.run([small_cell(seed=2)])
        assert [e.cached for e in events] == [False]

    def test_corrupt_entry_recomputed(self, tmp_path):
        cell = small_cell()
        runner = CellRunner(cache=True, cache_dir=tmp_path)
        (fresh,) = runner.run([cell])
        entry = tmp_path / f"{cell_fingerprint(cell)}.json"
        entry.write_text("{not json", encoding="utf-8")
        (again,) = CellRunner(cache=True, cache_dir=tmp_path).run([cell])
        assert again == fresh

    @pytest.mark.parametrize("malformed", [
        [], "x", {"payload": []}, {"payload": {}},
        {"payload": {"runs": 3}}])
    def test_malformed_entry_recomputed_and_overwritten(self, tmp_path,
                                                        malformed):
        """An entry that parses but is not a cell payload is neither
        raised on nor served: the cell recomputes and the good result
        replaces the bad file."""
        cell = small_cell()
        (uncached,) = CellRunner().run([cell])
        entry = tmp_path / f"{cell_fingerprint(cell)}.json"
        entry.write_text(json.dumps(malformed), encoding="utf-8")
        events = []
        runner = CellRunner(cache=True, cache_dir=tmp_path,
                            progress=events.append)
        assert runner.run([cell]) == [uncached]
        assert [e.cached for e in events] == [False]
        assert json.loads(entry.read_text())["payload"] == uncached
        assert runner.run([cell]) == [uncached]
        assert [e.cached for e in events] == [False, True]

    def test_cache_off_means_no_files(self, tmp_path):
        CellRunner(cache=False, cache_dir=tmp_path).run([small_cell()])
        assert list(tmp_path.iterdir()) == []


class TestFailingCell:
    """A sweep that dies says which cell killed it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_error_names_the_cell(self, jobs, tmp_path):
        bad = replace(small_cell(seed=2), label="sweep/the-bad-one",
                      runs=(RunSpec(workload="nope"),))
        cells = [small_cell(seed=1), bad, small_cell(seed=3)]
        events = []
        runner = CellRunner(jobs=jobs, cache=True, cache_dir=tmp_path,
                            progress=events.append)
        with pytest.raises(RuntimeError,
                           match="cell 'sweep/the-bad-one' failed") as info:
            runner.run(cells)
        cause = info.value.__cause__
        assert type(cause) is ValueError and "nope" in str(cause)
        assert "sweep/the-bad-one" not in {e.label for e in events}
        if jobs == 1:
            # What finished first was reported, and is kept: a rerun
            # finds it in the cache.  (Across processes the bad cell may
            # well fail before any other finishes.)
            assert [e.label for e in events] == ["cell/seed=1"]
            events.clear()
            CellRunner(cache=True, cache_dir=tmp_path,
                       progress=events.append).run([cells[0]])
            assert [e.cached for e in events] == [True]

    def test_a_dead_worker_names_every_unfinished_cell(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_execute_cell_timed",
                            _die_on_dying_label)
        cells = [replace(small_cell(seed=s), label=label)
                 for s, label in ((1, "sweep/a"), (2, DYING_LABEL),
                                  (3, "sweep/c"))]
        events = []
        with pytest.raises(RuntimeError, match="a worker process died") \
                as info:
            CellRunner(jobs=2, progress=events.append).run(cells)
        assert type(info.value.__cause__) is BrokenProcessPool
        finished = {e.label for e in events}
        named = {cell.label for cell in cells
                 if repr(cell.label) in str(info.value)}
        assert DYING_LABEL in named
        assert named == {cell.label for cell in cells} - finished

    def test_a_pool_that_breaks_while_submitting_names_every_cell(
            self, monkeypatch):
        """A worker can die before the last cell is submitted; then
        ``submit`` itself raises, and the sweep still fails by name."""
        from concurrent.futures import ProcessPoolExecutor
        submit, submitted = ProcessPoolExecutor.submit, []

        def breaks_on_the_second(pool, fn, *args):
            submitted.append(fn)
            if len(submitted) == 2:
                raise BrokenProcessPool("A child process terminated")
            return submit(pool, fn, *args)

        monkeypatch.setattr(runner_module, "_execute_cell_timed",
                            _die_on_dying_label)
        monkeypatch.setattr(ProcessPoolExecutor, "submit",
                            breaks_on_the_second)
        cells = [replace(small_cell(seed=s), label=f"sweep/{s}")
                 for s in (1, 2, 3)]
        with pytest.raises(RuntimeError, match="a worker process died") \
                as info:
            CellRunner(jobs=2).run(cells)
        assert type(info.value.__cause__) is BrokenProcessPool
        assert all(repr(cell.label) in str(info.value) for cell in cells[1:])


class TestPoolImport:
    def test_the_cli_imports_no_process_pool(self):
        """Only a run with ``jobs > 1`` imports the pool machinery: a
        fresh interpreter that imports the CLI has none of it."""
        src = Path(__file__).resolve().parents[1] / "src"
        probe = ("import sys, repro.core.cli; "
                 "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"


class TestProgress:
    def test_events_cover_all_cells_with_totals(self):
        cells = [small_cell(seed=s) for s in (1, 2, 3)]
        events = []
        payloads = CellRunner(jobs=2, progress=events.append).run(cells)
        assert len(payloads) == 3
        assert sorted(e.index for e in events) == [0, 1, 2]
        assert {e.total for e in events} == {3}
        assert all(not e.cached and e.duration_s > 0 for e in events)

    def test_payload_order_matches_input_order(self):
        cells = [small_cell(seed=s) for s in (5, 6)]
        parallel = CellRunner(jobs=2).run(cells)
        serial = [execute_cell(c) for c in cells]
        assert parallel == serial
