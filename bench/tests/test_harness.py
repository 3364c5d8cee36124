"""Harness tests: ``python -m pytest bench/tests -q`` (not part of tier-1).

The children are replaced by canned results except in the one smoke test
at the end, so the suite stays well under 30 s.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
PACKAGE_ROOT = ROOT / "src" / "repro"


# -- module path -> layer ---------------------------------------------------

def test_every_source_file_maps_to_exactly_one_named_layer():
    files = sorted(PACKAGE_ROOT.rglob("*.py"))
    assert files
    for path in files:
        layer = layers.layer_of(str(path), str(PACKAGE_ROOT))
        relative = path.relative_to(PACKAGE_ROOT)
        expected = relative.parts[0] if len(relative.parts) > 1 else "core"
        assert layer == expected, path
        assert layer in layers.PACKAGE_LAYERS


def test_every_package_is_a_named_layer():
    packages = {p.name for p in PACKAGE_ROOT.iterdir()
                if p.is_dir() and (p / "__init__.py").exists()}
    assert packages == set(layers.PACKAGE_LAYERS)


def test_paths_outside_the_package_are_python():
    assert layers.layer_of("/usr/lib/python3/heapq.py",
                           str(PACKAGE_ROOT)) == "python"
    assert layers.layer_of(str(BENCH_DIR / "adapter.py"),
                           str(PACKAGE_ROOT)) == "python"
    # A sibling whose name merely starts with the package's.
    assert layers.layer_of(str(PACKAGE_ROOT) + "_extras/sim/x.py",
                           str(PACKAGE_ROOT)) == "python"


def _entry(filename, inlinetime, callcount):
    code = (filename if filename.startswith("<")
            else SimpleNamespace(co_filename=filename))
    return SimpleNamespace(code=code, inlinetime=inlinetime,
                           callcount=callcount)


def test_roll_up_shares_sum_to_one_and_calls_to_pycalls():
    root = str(PACKAGE_ROOT)
    profile = layers.roll_up([
        _entry(f"{root}/sim/kernel.py", 0.5, 10),
        _entry(f"{root}/sim/resources.py", 0.25, 5),
        _entry(f"{root}/cluster/topology.py", 1.0, 7),
        _entry(f"{root}/keyspace.py", 0.125, 3),
        _entry("<built-in method _heapq.heappush>", 0.125, 100),
    ], root)
    by_layer = profile["layers"]
    assert set(by_layer) == set(layers.LAYERS)
    assert sum(l["share"] for l in by_layer.values()) == pytest.approx(
        1.0, abs=0.01)
    assert by_layer["sim"]["self_s"] == 0.75
    assert by_layer["core"]["calls"] == 3
    assert by_layer["python"]["calls"] == 100
    assert profile["pycalls"] == 125 == sum(
        l["calls"] for l in by_layer.values())


def test_count_calls_matches_code_objects_and_builtin_names():
    def target():
        pass

    def other():
        return 1

    entries = [
        SimpleNamespace(code=target.__code__, callcount=4),
        SimpleNamespace(code=other.__code__, callcount=9),
        SimpleNamespace(code="<built-in method _heapq.heappop>", callcount=2),
    ]
    assert layers.count_calls(
        entries, (target.__code__, "<built-in method _heapq.heappop>")) == 6


# -- names and the manifest the driver reads --------------------------------

def test_names_are_well_formed_and_unique():
    names = list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_exactly_what_the_command_prints():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "bench/run.py"]
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["bound"])
            for m in manifest["end_to_end"]} == {
        name: (unit, bound)
        for name, (unit, _kind, bound) in run.END_TO_END.items()}
    assert all(m["better"] == "lower" for m in manifest["end_to_end"])
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: unit for name, (unit, _kind) in run.PER_LAYER.items()}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


# -- run.py end to end, with canned children --------------------------------

def canned_child(digests=None):
    """A stand-in for ``Harness._child``: plausible results, no process.
    ``digests`` overrides the ``sim_digest`` of the n-th repetition."""
    launched = []

    def child(self, script, *args):
        if script == "drive.py":
            return {name: 1000.0 for name in run.DRIVE_METRICS}
        workload = args[args.index("--workload") + 1]
        traced = "--profile" in args
        n = len(launched)
        launched.append(workload)
        rep = {
            "workload": workload, "traced": traced, "seed": 42,
            "sim_digest": (digests or {}).get(n, "d" * 64),
            "sizes": {}, "setup_s": 1.0 + n / 100, "run_wall_s": 2.0 + n / 100,
            "run_cpu_s": 1.9, "peak_rss_mb": 64.0,
            # The host ran at half the reference speed.
            "calib_s": 2 * run.CALIBRATION_REFERENCE_S,
            "spans": [{"name": p, "start": i, "end": i + 0.5, "parent": None}
                      for i, p in enumerate(run.PHASES)],
        }
        if workload in run.CELL_WORKLOADS:
            rep.update(config_hash="c" * 64, ops_attempted=1000,
                       ops_accounted=900, ops_ok=900, errors=0,
                       errors_by_type={}, events=13000,
                       unexpected_violations=0,
                       stats={"rpcs": 3000, "cache_hit_rate": 0.9,
                              "sstables": 4, "read_repairs": 1,
                              "wal_batches": 0})
        else:
            rep["exit_code"] = 0
        if traced:
            rep["profile"] = {
                "pycalls": 1300,
                "layers": {layer: {"self_s": 0.1, "share": 1 / 13,
                                   "calls": 100} for layer in run.LAYERS},
                "hooks": {"processes": 3000, "timeouts": 9000,
                          "resumes": 12000, "heap_ops": 26000}}
        return rep

    return child


def last_line_metrics(capsys):
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"], out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(
        monkeypatch, capsys, workload):
    monkeypatch.setattr(run.Harness, "_child", canned_child())
    assert run.main(["--workload", workload, "--seconds", "6",
                     "--trace", "0"]) == 0
    metrics, out = last_line_metrics(capsys)
    assert {n: m["unit"] for n, m in metrics.items()} == {
        n: unit for n, (unit, _k, _b) in run.END_TO_END.items()}
    # 2.0 s per canned repetition: the minimum of three covers 6 s.
    assert "n 3, median" in out
    # Repetitions took 2.00, 2.01, 2.02 s at half the reference speed.
    assert metrics["run_norm_s"]["value"] == pytest.approx(2.01 / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(1.01 / 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(
        monkeypatch, capsys, workload):
    monkeypatch.setattr(run.Harness, "_child", canned_child())
    assert run.main(["--workload", workload, "--rounds", "3",
                     "--trace", "1"]) == 0
    metrics, _out = last_line_metrics(capsys)
    assert {n: m["unit"] for n, m in metrics.items()} == {
        n: unit for n, (unit, _k) in run.PER_LAYER.items()}
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in run.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)
    if workload in run.CELL_WORKLOADS:
        assert metrics["sim.events_per_op"]["value"] == 13.0
        assert metrics["sim.heap_ops_per_op"]["value"] == 26.0
        assert metrics["cluster.rpcs_per_op"]["value"] == 3.0
    else:
        assert metrics["sim.events_per_op"]["value"] == 0


def test_all_workloads_run_round_robin_and_out_carries_a_manifest(
        monkeypatch, capsys, tmp_path):
    order = []
    child = canned_child()

    def recording(self, script, *args):
        if script == "child.py":
            order.append(args[args.index("--workload") + 1])
        return child(self, script, *args)

    monkeypatch.setattr(run.Harness, "_child", recording)
    out = tmp_path / "report.json"
    assert run.main(["--rounds", "3", "--out", str(out)]) == 0
    # Round 1 of every workload, then round 2, ...; traced ones last.
    assert order == list(run.WORKLOADS) * 4
    metrics, _ = last_line_metrics(capsys)
    assert set(metrics) == set(run.WORKLOADS)
    report = json.loads(out.read_text())
    assert {"seed", "rounds", "sizes", "python", "nproc", "platform",
            "git_head", "harness_wall_s"} <= set(report["manifest"])
    assert report["manifest"]["rounds"] == dict.fromkeys(run.WORKLOADS, 3)


def test_mismatching_sim_digest_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(run.Harness, "_child",
                        canned_child(digests={1: "e" * 64}))
    assert run.main(["--workload", "cas_closed_rw", "--rounds", "3"]) == 1
    captured = capsys.readouterr()
    assert "sim_digest eeeeeeeeeeee equals round 1's dddddddddddd" \
        in captured.err
    # No result line for a run whose outputs are wrong.
    assert "\"metrics\"" not in captured.out


def test_each_broken_invariant_is_one_failed_check():
    good = canned_child()(None, "child.py", "--workload", "cas_open_overload")
    for broken in ({"ops_ok": 899}, {"unexpected_violations": 2},
                   {"sim_digest": "x" * 64}):
        checks = run.Checks()
        run.verify_repetition(checks, "cas_open_overload",
                              {**good, **broken}, digest="d" * 64)
        assert len(checks.failures) == 1, broken
        assert checks.attempted == 3
    checks = run.Checks()
    closed = canned_child()(None, "child.py", "--workload", "cas_closed_rw")
    run.verify_repetition(checks, "cas_closed_rw",
                          {**closed, "ops_ok": 899, "errors": 1})
    assert len(checks.failures) == 1 and "errors" in checks.failures[0]


def test_dead_child_stops_the_run_without_a_result(monkeypatch, capsys):
    launched = []

    def dying(command, **kwargs):
        launched.append(command)
        return SimpleNamespace(returncode=3, stdout="", stderr="boom")

    monkeypatch.setattr(run.subprocess, "run", dying)
    assert run.main(["--workload", "hbase_closed_rw", "--seconds", "6"]) == 1
    captured = capsys.readouterr()
    assert "child exited 0 with a result" in captured.err
    assert "exit code 3" in captured.err and "boom" in captured.err
    assert "\"metrics\"" not in captured.out
    assert len(launched) == 1


def test_selfcheck_compares_two_sets(monkeypatch, capsys):
    monkeypatch.setattr(run.Harness, "_child", canned_child())
    assert run.main(["--selfcheck", "--workload", "cas_closed_rw",
                     "--rounds", "3"]) == 0
    assert "selfcheck passed" in capsys.readouterr().out

    slow_second_set = canned_child()

    def drifting(self, script, *args):
        rep = slow_second_set(self, script, *args)
        if rep.get("setup_s", 0) > 1.035:  # the second set's repetitions
            rep["run_wall_s"] *= 2
        return rep

    monkeypatch.setattr(run.Harness, "_child", drifting)
    assert run.main(["--selfcheck", "--workload", "cas_closed_rw",
                     "--rounds", "3"]) == 1
    assert "cas_closed_rw.run_norm_s moved" in capsys.readouterr().err


# -- the real thing, once ---------------------------------------------------

def _run_script(script, *args, cwd=ROOT, root=ROOT):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)


def test_a_real_traced_child_separates_the_layers():
    done = _run_script(BENCH_DIR / "child.py", "--workload",
                       "hbase_closed_rw", "--seed", "5", "--profile")
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout.splitlines()[-1])
    by_layer = rep["profile"]["layers"]
    assert sum(l["share"] for l in by_layer.values()) == pytest.approx(
        1.0, abs=0.01)
    assert sum(l["calls"] for l in by_layer.values()) \
        == rep["profile"]["pycalls"]
    assert by_layer["cassandra"]["calls"] == 0
    assert by_layer["clienttier"]["calls"] == 0
    assert by_layer["hbase"]["calls"] > 0 and by_layer["hdfs"]["calls"] > 0
    assert by_layer["core"]["share"] < 0.01
    assert all(rep["profile"]["hooks"].values())
    assert rep["ops_ok"] + rep["errors"] == rep["ops_accounted"]
    names = [s["name"] for s in rep["spans"]]
    assert names == ["setup", "import", "build", "load", "warm",
                     "measured", "run", "summarize"]
    assert "calib_s" not in rep  # traced repetitions supply no timings
    assert all(s["end"] >= s["start"] >= 0 for s in rep["spans"])


def test_without_the_product_the_command_fails_and_prints_no_result(
        tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_script(tmp_path / "bench" / "run.py", "--workload",
                       "cas_closed_rw", "--seed", "1", "--seconds", "6",
                       "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert "\"metrics\"" not in done.stdout
    assert not (tmp_path / ".bench_tmp").exists()
