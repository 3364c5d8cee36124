"""The repo benchmark: four workloads, measured from outside ``repro``.

    python bench/run.py [--seed 42] [--rounds 5] [--workload NAME]
                        [--trace] [--out PATH] [--selfcheck]

Every repetition is one fresh ``bench/child.py`` process; children run
one at a time, in round-robin order across workloads (round 1 of every
workload, then round 2, ...), so host drift hits all workloads alike.
Each workload gets ``--rounds`` untraced repetitions (the source of every
host timing) plus one repetition under cProfile (the source of
``pycalls_m`` and the layer attribution, never of a timing).  This host's
speed drifts by tens of percent within minutes, so the two end-to-end
timings are scaled by a calibration loop each child times next to its
measured phase (``child.calibrate``); raw times are in the per-layer set.

*Host* numbers are what this machine paid to run the simulator;
*simulated* numbers are the simulator's own output and repeat exactly.
Every line printed says which.  With ``--workload`` the last stdout line
is the contract object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics without ``--trace``, the per-layer metrics with it
(``--trace 0`` / ``--trace 1`` are accepted too).  ``attempted`` and
``failed`` count verification checks, see ``verify_repetition``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

CELL_WORKLOADS = ("cas_closed_rw", "hbase_closed_rw", "cas_open_overload")
CLOSED_WORKLOADS = ("cas_closed_rw", "hbase_closed_rw")
WORKLOADS = CELL_WORKLOADS + ("campaign_fig2_quick",)

#: name -> (unit, host|simulated, bound): how far the median may worsen,
#: as a share of the parent's, before it is a regression.  All lower is
#: better.  The bounds are wide because the driver compares across seeds,
#: whose simulated work differs by a few percent, on a host whose speed
#: drifts by tens of percent over minutes; see README.md.
END_TO_END = {
    "run_norm_s": ("s", "host, speed-normalised", 0.25),
    "setup_s": ("s", "host, speed-normalised", 0.25),
    "peak_rss_mb": ("MB", "host", 0.20),
    "pycalls_m": ("Mcalls", "exact count", 0.15),
}
#: What ``child.calibrate()`` takes on the builder's host when it is
#: quiet.  A repetition's timings are multiplied by this over what the
#: loop took right before and after its measured phase, i.e. reported in
#: seconds of that reference speed rather than of the moment's.
CALIBRATION_REFERENCE_S = 0.30

PHASES = ("import", "build", "load", "warm", "run", "summarize")
DRIVE_METRICS = (
    "drive.sim.events_per_s", "drive.sim.switches_per_s",
    "drive.sim.fanin_rounds_per_s", "drive.cluster.rpcs_per_s",
    "drive.storage.puts_per_s", "drive.storage.gets_per_s",
    "drive.storage.scans_per_s", "drive.ycsb.keys_per_s",
    "drive.ycsb.samples_per_s")

#: name -> (unit, host|simulated).  No bounds: these explain a change,
#: the end-to-end metrics judge it.
PER_LAYER = {
    **{f"phase.{p}_s": ("s", "host") for p in PHASES},
    **{f"{layer}.{what}": (unit, kind) for layer in LAYERS
       for what, unit, kind in (("self_s", "s", "host, traced"),
                                ("share", "ratio", "host, traced"),
                                ("calls", "count", "exact count"))},
    "sim.events_per_op": ("1/op", "exact count"),
    "sim.processes_per_op": ("1/op", "exact count"),
    "sim.timeouts_per_op": ("1/op", "exact count"),
    "sim.resumes_per_op": ("1/op", "exact count"),
    "sim.heap_ops_per_op": ("1/op", "exact count"),
    "host.us_per_event": ("us", "host"),
    "host.sim_ops_per_s": ("1/s", "host"),
    "host.run_cpu_s": ("s", "host"),
    "host.calib_s": ("s", "host"),
    "cluster.rpcs_per_op": ("1/op", "simulated"),
    "storage.cache_hit_rate": ("ratio", "simulated"),
    "storage.sstables": ("count", "simulated"),
    "cassandra.read_repairs_per_op": ("1/op", "simulated"),
    "hdfs.wal_batches_per_op": ("1/op", "simulated"),
    "trace.overhead_ratio": ("ratio", "host"),
    **{name: ("1/s", "host") for name in DRIVE_METRICS},
}

MIN_ROUNDS = 3
DEFAULT_ROUNDS = 5
#: With ``--seconds`` and no ``--rounds``, repetitions continue until the
#: measured phases add up to the budget — between these limits.
MAX_ADAPTIVE_ROUNDS = 8
CHILD_TIMEOUT_S = 150


class ChildDied(Exception):
    """A child process gave no result; nothing after it can be trusted."""


class Checks:
    """Verification checks: each is one attempted operation and, when it
    fails, one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok


def summarize_samples(values: list[float]) -> dict:
    """Median, quartiles, min and n of one metric's repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "n": len(values)}


def verify_repetition(checks: Checks, workload: str, rep: dict,
                      digest: str | None = None,
                      pycalls: int | None = None) -> None:
    """The output checks every repetition goes through, on top of its
    child having exited 0 with a result.  ``digest`` is round 1's
    ``sim_digest`` for this workload and ``pycalls`` the first traced
    repetition's call count (``None``: this is that repetition).
    Modelled errors on ``cas_open_overload`` (``Overloaded``,
    ``RpcTimeout``) are simulated outcomes pinned by ``sim_digest``, not
    failures."""
    tag = f"{workload}[{'traced' if rep['traced'] else 'untraced'}]"
    if digest is not None:
        checks.check(rep["sim_digest"] == digest,
                     f"{tag}: sim_digest {rep['sim_digest'][:12]} equals "
                     f"round 1's {digest[:12]}")
    if workload in CELL_WORKLOADS:
        checks.check(
            rep["ops_ok"] + rep["errors"] == rep["ops_accounted"],
            f"{tag}: conservation, {rep['ops_ok']} ok + {rep['errors']} "
            f"errors = {rep['ops_accounted']} accounted")
    else:
        checks.check(rep["exit_code"] == 0,
                     f"{tag}: campaign exit code {rep['exit_code']}")
    if workload in CLOSED_WORKLOADS:
        checks.check(rep["errors"] == 0,
                     f"{tag}: {rep['errors']} errors on a fault-free closed "
                     f"cell ({rep['errors_by_type']})")
    if workload == "cas_open_overload":
        checks.check(rep["unexpected_violations"] == 0,
                     f"{tag}: {rep['unexpected_violations']} unexpected "
                     f"consistency violations")
    if rep["traced"] and pycalls is not None:
        checks.check(rep["profile"]["pycalls"] == pycalls,
                     f"{tag}: pycalls {rep['profile']['pycalls']} equals the "
                     f"first traced repetition's {pycalls}")


class Harness:
    """Launches children one at a time and keeps what they reported."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.checks = Checks()
        self.env = dict(
            os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
            REPRO_CELL_CACHE=str(work_dir / "cells"))
        #: workload -> untraced / traced repetitions, in launch order.
        self.untraced: dict[str, list[dict]] = {}
        self.traced: dict[str, list[dict]] = {}

    def _child(self, script: str, *args: str) -> dict:
        """Run one child to completion; its last stdout line as JSON."""
        what = f"{script} {' '.join(args)}"
        self.checks.attempted += 1  # "child exited 0 with a result"
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / script), *args],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise ChildDied(f"{what}: no result within {CHILD_TIMEOUT_S} s")
        if done.returncode != 0:
            raise ChildDied(f"{what}: exit code {done.returncode}\n"
                            f"{done.stderr[-2000:]}")
        try:
            return json.loads(done.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            raise ChildDied(f"{what}: no JSON on the last stdout line")

    def repetition(self, workload: str, traced: bool) -> None:
        rep = self._child(
            "child.py", "--workload", workload, "--seed", str(self.seed),
            "--spawned-at", repr(time.monotonic()),
            *(["--profile"] if traced else []))
        # Round 1 pins the digest, the first traced repetition the count.
        earlier = (self.untraced.get(workload, [])
                   + self.traced.get(workload, []))
        traced_before = self.traced.get(workload, [])
        verify_repetition(
            self.checks, workload, rep,
            digest=earlier[0]["sim_digest"] if earlier else None,
            pycalls=(traced_before[0]["profile"]["pycalls"]
                     if traced_before else None))
        (self.traced if traced else self.untraced).setdefault(
            workload, []).append(rep)

    def drive(self) -> dict:
        rates = self._child("drive.py")
        self.checks.check(set(rates) == set(DRIVE_METRICS),
                          "drive: every direct-drive stage reported a rate")
        return rates


def run_rounds(harness: Harness, workloads, rounds: int | None,
               seconds: float | None) -> None:
    """Untraced repetitions, round-robin, then one traced repetition per
    workload."""
    def wants_more(workload: str, done_rounds: int) -> bool:
        if rounds is not None:
            return done_rounds < rounds
        if done_rounds < MIN_ROUNDS:
            return True
        measured = sum(r["run_wall_s"]
                       for r in harness.untraced.get(workload, []))
        return measured < seconds and done_rounds < MAX_ADAPTIVE_ROUNDS

    done_rounds = 0
    active = list(workloads)
    while active:
        for workload in active:
            harness.repetition(workload, traced=False)
        done_rounds += 1
        active = [w for w in active if wants_more(w, done_rounds)]
    for workload in workloads:
        harness.repetition(workload, traced=True)


def end_to_end_metrics(harness: Harness, workload: str) -> dict:
    """``{metric: {value, unit, kind, median, q1, q3, min, n}}``.  The
    value is the median of the repetitions, except for the two timings:
    those pool the repetitions — total wall time over total calibration
    time — because the calibration loop is short and noisy on its own, and
    the pooled ratio proved steadier than the median of per-repetition
    ratios (README.md, *Steadiness*)."""
    untraced, traced = harness.untraced[workload], harness.traced[workload]

    def normalised(key: str) -> list[float]:
        return [rep[key] * CALIBRATION_REFERENCE_S / rep["calib_s"]
                for rep in untraced]

    def pooled(key: str) -> float:
        return (sum(rep[key] for rep in untraced) * CALIBRATION_REFERENCE_S
                / sum(rep["calib_s"] for rep in untraced))

    samples = {
        "run_norm_s": normalised("run_wall_s"),
        "setup_s": normalised("setup_s"),
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        "pycalls_m": [rep["profile"]["pycalls"] / 1e6 for rep in traced],
    }
    values = {"run_norm_s": pooled("run_wall_s"),
              "setup_s": pooled("setup_s")}
    metrics = {}
    for name, (unit, kind, _bound) in END_TO_END.items():
        stats = summarize_samples(samples[name])
        metrics[name] = {"value": values.get(name, stats["median"]),
                         "unit": unit, "kind": kind, **stats}
    return metrics


def per_layer_metrics(harness: Harness, workload: str, drive: dict) -> dict:
    """``{metric: value}`` for every name in ``PER_LAYER``.  Host timings
    are raw (not speed-normalised) and come from the untraced repetition
    with the median measured phase.  Metrics that do not apply to a
    workload (the campaign's simulator environments are internal to it)
    read 0."""
    by_wall = sorted(harness.untraced[workload],
                     key=lambda rep: rep["run_wall_s"])
    typical = by_wall[len(by_wall) // 2]
    traced = harness.traced[workload][0]
    profile = traced["profile"]
    values = dict.fromkeys(PER_LAYER, 0.0)
    for phase in PHASES:
        values[f"phase.{phase}_s"] = sum(
            s["end"] - s["start"] for s in typical["spans"]
            if s["name"] == phase)
    for layer in LAYERS:
        for what in ("self_s", "share", "calls"):
            values[f"{layer}.{what}"] = profile["layers"][layer][what]
    run_wall_s = typical["run_wall_s"]
    values["host.run_cpu_s"] = typical["run_cpu_s"]
    values["host.calib_s"] = typical["calib_s"]
    values["trace.overhead_ratio"] = traced["run_wall_s"] / run_wall_s
    if workload in CELL_WORKLOADS:
        ops, stats = typical["ops_attempted"], typical["stats"]
        values["sim.events_per_op"] = typical["events"] / ops
        for hook in ("processes", "timeouts", "resumes", "heap_ops"):
            values[f"sim.{hook}_per_op"] = profile["hooks"][hook] / ops
        values["host.us_per_event"] = run_wall_s / typical["events"] * 1e6
        values["host.sim_ops_per_s"] = ops / run_wall_s
        values["cluster.rpcs_per_op"] = stats["rpcs"] / ops
        values["storage.cache_hit_rate"] = stats["cache_hit_rate"]
        values["storage.sstables"] = stats["sstables"]
        values["cassandra.read_repairs_per_op"] = stats["read_repairs"] / ops
        values["hdfs.wal_batches_per_op"] = stats["wal_batches"] / ops
    values.update(drive)
    return values


def manifest(args, workloads, harness: Harness, started: float) -> dict:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        head = "unknown"
    return {
        "seed": args.seed,
        "rounds": {w: len(harness.untraced[w]) for w in workloads},
        "traced": bool(args.trace),
        "sizes": {w: reps[0]["sizes"]
                  for w, reps in harness.untraced.items()},
        "config_hash": {w: reps[0]["config_hash"]
                        for w, reps in harness.untraced.items()
                        if "config_hash" in reps[0]},
        "sim_digest": {w: reps[0]["sim_digest"]
                       for w, reps in harness.untraced.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_head": head,
        "harness_wall_s": time.monotonic() - started,
    }


def print_report(workloads, end_to_end: dict, per_layer: dict,
                 info: dict) -> None:
    for workload in workloads:
        print(f"== {workload}  {json.dumps(info['sizes'].get(workload))}")
        for key in ("sim_digest", "config_hash"):
            if workload in info[key]:
                print(f"   {key} {info[key][workload]}  (simulated)")
        for name, m in end_to_end[workload].items():
            print(f"   {name:<34} {m['value']:>14.6g} {m['unit']:<7}"
                  f"({m['kind']}; n {m['n']}, median {m['median']:.6g}, "
                  f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, min {m['min']:.6g})")
        for name, value in per_layer.get(workload, {}).items():
            unit, kind = PER_LAYER[name]
            print(f"   {name:<34} {value:>14.6g} {unit:<7}({kind})")
    print(f"harness wall time {info['harness_wall_s']:.1f} s (host), "
          f"python {info['python']}, nproc {info['nproc']}, "
          f"git {info['git_head'][:12]}")


def measure(args, workloads, work_dir: Path, started: float) -> dict:
    """One full set of repetitions -> the report dict ``--out`` stores."""
    harness = Harness(args.seed, work_dir)
    run_rounds(harness, workloads, args.rounds, args.seconds)
    end_to_end = {w: end_to_end_metrics(harness, w) for w in workloads}
    per_layer = {}
    if args.trace:
        drive = harness.drive()
        per_layer = {w: per_layer_metrics(harness, w, drive)
                     for w in workloads}
    return {
        "manifest": manifest(args, workloads, harness, started),
        "checks": {"attempted": harness.checks.attempted,
                   "failed": len(harness.checks.failures),
                   "failures": harness.checks.failures},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "repetitions": {"untraced": harness.untraced,
                        "traced": harness.traced},
    }


def contract_line(report: dict, workloads, traced: bool) -> str:
    """The last stdout line.  One workload: its metrics, flat, as the
    contract asks; several: the same object with metrics keyed by
    workload."""
    def metrics_of(workload: str) -> dict:
        if traced:
            return {name: {"value": value, "unit": PER_LAYER[name][0]}
                    for name, value in report["per_layer"][workload].items()}
        return {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in report["end_to_end"][workload].items()}

    metrics = (metrics_of(workloads[0]) if len(workloads) == 1
               else {w: metrics_of(w) for w in workloads})
    checks = report["checks"]
    return json.dumps({"correct": checks["failed"] == 0,
                       "attempted": checks["attempted"],
                       "failed": checks["failed"], "metrics": metrics})


def selfcheck(args, workloads, work_dir: Path, started: float) -> int:
    """Two full sets back to back: every end-to-end value must agree
    within its bound, exact counters and digests exactly."""
    first = measure(args, workloads, work_dir, started)
    second = measure(args, workloads, work_dir, started)
    problems = first["checks"]["failures"] + second["checks"]["failures"]
    for workload in workloads:
        a, b = first["end_to_end"][workload], second["end_to_end"][workload]
        for name, (unit, _kind, bound) in END_TO_END.items():
            before, after = a[name]["value"], b[name]["value"]
            change = abs(after - before) / before
            verdict = "ok" if change <= bound else "OUT OF BOUND"
            print(f"{workload:<22} {name:<12} {before:>12.6g} -> "
                  f"{after:>12.6g} {unit:<7} {change:>7.2%} "
                  f"(bound {bound:.0%}) {verdict}")
            if change > bound:
                problems.append(f"{workload}.{name} moved {change:.2%}")
        for key in ("sim_digest", "config_hash"):
            if first["manifest"][key].get(workload) != \
                    second["manifest"][key].get(workload):
                problems.append(f"{workload}: {key} differs between sets")
        if a["pycalls_m"]["value"] != b["pycalls_m"]["value"]:
            problems.append(f"{workload}: pycalls_m differs between sets")
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"untraced repetitions per workload (default "
                             f"{DEFAULT_ROUNDS}; never below {MIN_ROUNDS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="without --rounds: repeat until the measured "
                             "phases add up to this many host seconds "
                             f"({MIN_ROUNDS} to {MAX_ADAPTIVE_ROUNDS} "
                             "repetitions)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run the direct-drive stages and report "
                             "the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full report (manifest, every "
                             "repetition, spans) as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets back to back and compare them "
                             "against the benchmark's own bounds")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < MIN_ROUNDS:
        parser.error(f"--rounds must be at least {MIN_ROUNDS}")
    if args.rounds is None and args.seconds is None:
        args.rounds = DEFAULT_ROUNDS
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    workloads = (args.workload,) if args.workload else WORKLOADS
    # Scratch space stays inside the checkout; .gitignore names it.
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        if args.selfcheck:
            return selfcheck(args, workloads, work_dir, started)
        report = measure(args, workloads, work_dir, started)
    except ChildDied as died:
        print(f"CHECK FAILED: child exited 0 with a result: {died}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # unless another run is using it
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True))
    if report["checks"]["failed"]:
        # No result line: a run whose outputs are wrong has no metrics.
        print(f"{report['checks']['failed']} of "
              f"{report['checks']['attempted']} checks failed",
              file=sys.stderr)
        return 1
    print_report(workloads, report["end_to_end"], report["per_layer"],
                 report["manifest"])
    print(contract_line(report, workloads, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
