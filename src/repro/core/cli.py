"""``repro-bench``: regenerate the paper's tables and figures from the CLI.

Examples::

    repro-bench table1
    repro-bench fig1 --db cassandra --quick
    repro-bench fig2 --quick
    repro-bench fig3
    repro-bench surge --quick --db cassandra

Subcommands register declaratively in :data:`CAMPAIGNS`: one
:class:`Campaign` entry names the handler, the shared option groups it
takes (``"quick"``, ``"jobs"``, ``"dbs"``, ...) and any campaign-specific
:class:`Arg` specs — :func:`build_parser` materialises the whole table,
and :func:`main` applies each campaign's post-parse defaults.  Adding a
campaign is one ``cmd_*`` function plus one table entry; no subparser
plumbing to copy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.failure import FAULT_KINDS
from repro.core.report import (
    render_adaptive_sweep,
    render_adaptive_timeline,
    render_check_report,
    render_consistency_sweep,
    render_energy_sweep,
    render_failover_sweep,
    render_failover_timeline,
    render_geo_sweep,
    render_micro_sweep,
    render_progress,
    render_scale_sweep,
    render_stress_sweep,
    render_surge_sweep,
    render_table,
    render_tail_sweep,
)
from repro.core.perf import (
    QUICK_PERF_SCALE,
    PerfScale,
    compare_to_baseline,
    profile_stress_cell,
    render_perf_report,
    run_perf_suite,
)
from repro.core.runner import CellRunner, default_cache_dir
from repro.core.sweep import (
    ADAPTIVE_POLICIES,
    CHECK_CL_MODES,
    ELASTIC_SCENARIOS,
    GEO_CL_MODES,
    GEO_SCENARIOS,
    QUICK_ADAPTIVE_SCALE,
    QUICK_CHECK_SCALE,
    QUICK_ELASTIC_SCALE,
    QUICK_ENERGY_SCALE,
    QUICK_FAILOVER_SCALE,
    QUICK_GEO_SCALE,
    QUICK_SCALE,
    QUICK_SURGE_SCALE,
    QUICK_TAIL_SCALE,
    SCALE_MODES,
    SURGE_MODES,
    SURGE_SCENARIOS,
    TAIL_MODES,
    TAIL_SCENARIOS,
    AdaptiveScale,
    CheckScale,
    ElasticScale,
    EnergyScale,
    FailoverScale,
    GeoScale,
    SurgeScale,
    SweepScale,
    TailScale,
    adaptive_sweep,
    check_sweep,
    consistency_stress_sweep,
    energy_sweep,
    failover_sweep,
    geo_sweep,
    replication_micro_sweep,
    replication_stress_sweep,
    scale_sweep,
    surge_sweep,
    tail_sweep,
)
from repro.ycsb.workload import STRESS_WORKLOADS

__all__ = ["main"]


def _scale(args) -> SweepScale:
    return QUICK_SCALE if args.quick else SweepScale()


def _rfs(args) -> list[int]:
    return list(range(1, args.max_rf + 1))


def _runner(args) -> CellRunner:
    """The figure commands' cell runner: ``--jobs``/``--no-cache`` wired
    to :class:`CellRunner`, progress lines on stderr as cells finish."""
    completed = [0]

    def progress(event) -> None:
        completed[0] += 1
        print(render_progress(event, completed[0]), file=sys.stderr,
              flush=True)

    return CellRunner(jobs=args.jobs, cache=not args.no_cache,
                      progress=progress)


def _write_report(args, payload: dict) -> None:
    """Write the machine-readable sweep next to the rendered table."""
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.report}", file=sys.stderr)


def cmd_table1(_args) -> int:
    rows = []
    for spec in STRESS_WORKLOADS.values():
        mix = []
        if spec.read_proportion:
            mix.append(f"read {spec.read_proportion:.0%}")
        if spec.update_proportion:
            mix.append(f"update {spec.update_proportion:.0%}")
        if spec.insert_proportion:
            mix.append(f"insert {spec.insert_proportion:.0%}")
        if spec.scan_proportion:
            mix.append(f"scan {spec.scan_proportion:.0%}")
        if spec.read_modify_write_proportion:
            mix.append(f"rmw {spec.read_modify_write_proportion:.0%}")
        rows.append([spec.name, spec.typical_usage, ", ".join(mix),
                     spec.request_distribution])
    print(render_table(
        ["Workload", "Typical usage", "Operations", "Distribution"], rows,
        title="Table 1: workloads of the stress benchmarks"))
    return 0


def cmd_fig1(args) -> int:
    for db in args.dbs:
        sweep = replication_micro_sweep(db, _rfs(args), _scale(args),
                                        runner=_runner(args))
        print(render_micro_sweep(db, sweep))
        print()
    return 0


def cmd_fig2(args) -> int:
    for db in args.dbs:
        sweep = replication_stress_sweep(db, _rfs(args), _scale(args),
                                         runner=_runner(args))
        print(render_stress_sweep(db, sweep))
        print()
    return 0


def cmd_fig3(args) -> int:
    sweep = consistency_stress_sweep(_scale(args), runner=_runner(args))
    print(render_consistency_sweep(sweep))
    return 0


def cmd_failover(args) -> int:
    scale = QUICK_FAILOVER_SCALE if args.quick else FailoverScale()
    for db in args.dbs:
        sweep = failover_sweep(db, args.faults, scale, runner=_runner(args))
        print(render_failover_sweep(db, sweep))
        if args.timeline:
            for kind in sweep:
                for mode, summary in sweep[kind].items():
                    print()
                    print(render_failover_timeline(
                        f"{db}/{kind}/cl={mode}", summary["failover"]))
        print()
    return 0


def cmd_tail(args) -> int:
    scale = QUICK_TAIL_SCALE if args.quick else TailScale()
    modes = args.modes or list(TAIL_MODES)
    scenarios = args.scenarios or list(TAIL_SCENARIOS)
    for db in args.dbs:
        sweep = tail_sweep(db, scale, modes=modes, scenarios=scenarios,
                           runner=_runner(args))
        print(render_tail_sweep(db, sweep))
        print()
    return 0


def cmd_check(args) -> int:
    """Consistency oracle: explore seeds, print the verdict, and fail
    the process (``--strict``) on any violation the configured
    guarantee does not permit."""
    scale = QUICK_CHECK_SCALE if args.quick else CheckScale()
    sweeps: dict = {}
    unexpected = 0
    for db in args.dbs:
        sweep = check_sweep(db, mode=args.cl, seeds=args.seeds,
                            fault=args.fault, no_repair=args.no_repair,
                            scale=scale, runner=_runner(args))
        sweeps[db] = sweep
        unexpected += sweep["unexpected_violations"]
        print(render_check_report(db, sweep))
        print()
    _write_report(args, sweeps)
    if args.strict and unexpected:
        print(f"FAIL: {unexpected} unexpected violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_adaptive(args) -> int:
    """Adaptive-consistency campaign: per-request CL policies vs static
    baselines under a latency/staleness SLO, with the decision digest
    printed so CI can assert bit-identity across ``--jobs`` settings."""
    scale = QUICK_ADAPTIVE_SCALE if args.quick else AdaptiveScale()
    policies = args.policies or list(ADAPTIVE_POLICIES)
    sweep = adaptive_sweep(policies, scale, runner=_runner(args))
    print(render_adaptive_sweep(sweep))
    if args.timeline:
        for policy in sweep:
            for target, summary in sweep[policy].items():
                print()
                print(render_adaptive_timeline(
                    f"adaptive/{policy}/target={target:g}",
                    summary["decisions"]))
    if args.digests:
        print()
        for policy in sweep:
            for target, summary in sweep[policy].items():
                print(f"digest {policy} target={target:g} "
                      f"{summary['decisions']['digest']}")
    _write_report(args, sweep)
    return 0


def cmd_geo(args) -> int:
    """Geo-replication campaign: DC-aware CLs x WAN faults x client
    regions, with the cross-DC oracle verdict per run.  ``--strict``
    fails the process on any violation the configured guarantee forbids
    — for LOCAL_* that means divergence surviving heal + hint replay."""
    from repro.consistency.oracle import unexpected_violations
    scale = QUICK_GEO_SCALE if args.quick else GeoScale()
    modes = args.modes or list(GEO_CL_MODES)
    scenarios = args.scenarios or list(GEO_SCENARIOS)
    sweep = geo_sweep(modes, scenarios, scale, runner=_runner(args))
    print(render_geo_sweep(sweep))
    unexpected = 0
    for mode in sweep:
        for scenario, regions in sweep[mode].items():
            for region, summary in regions.items():
                count = unexpected_violations(summary["consistency"])
                if count:
                    print(f"unexpected violations: {mode}/{scenario}"
                          f"/{region}: {count}", file=sys.stderr)
                unexpected += count
    _write_report(args, sweep)
    if args.strict and unexpected:
        print(f"FAIL: {unexpected} unexpected violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_surge(args) -> int:
    """Flash-crowd survival campaign: open-loop arrivals x client-tier
    defense stacks, composed with the PR-3 server-side tail defenses.
    Cassandra cells run with the consistency oracle recording outside
    the cache-aside tier; ``--strict`` fails the process if any cell
    shows violations the weak CL does not already permit (i.e.
    convergence gaps — staleness bounded by the cache TTL is the
    campaign's *measured* trade, not a failure)."""
    from repro.consistency.oracle import unexpected_violations
    scale = QUICK_SURGE_SCALE if args.quick else SurgeScale()
    modes = args.modes or list(SURGE_MODES)
    scenarios = args.scenarios or list(SURGE_SCENARIOS)
    sweeps: dict = {}
    unexpected = 0
    for db in args.dbs:
        sweep = surge_sweep(db, scale, modes=modes, scenarios=scenarios,
                            runner=_runner(args))
        sweeps[db] = sweep
        print(render_surge_sweep(db, sweep))
        print()
        for scenario in sweep:
            for mode, summary in sweep[scenario].items():
                cons = summary.get("consistency")
                if cons is None:
                    continue
                count = unexpected_violations(cons)
                if count:
                    print(f"unexpected violations: {db}/{scenario}"
                          f"/{mode}: {count}", file=sys.stderr)
                unexpected += count
    _write_report(args, sweeps)
    if args.strict and unexpected:
        print(f"FAIL: {unexpected} unexpected violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_scale(args) -> int:
    """Elasticity campaign: scale the cluster while it serves.  Every
    cell records a Jepsen-style history across the topology change;
    ``--strict`` fails the process if any cell shows a violation the
    cell's consistency level does not already permit (the elasticity
    safety contract: no acknowledged write lost to a bootstrap,
    decommission or rebalance)."""
    from repro.consistency.oracle import unexpected_violations
    scale = QUICK_ELASTIC_SCALE if args.quick else ElasticScale()
    modes = args.modes or list(SCALE_MODES)
    scenarios = args.scenarios or list(ELASTIC_SCENARIOS)
    sweeps: dict = {}
    unexpected = 0
    for db in args.dbs:
        sweep = scale_sweep(db, scale, modes=modes, scenarios=scenarios,
                            runner=_runner(args))
        sweeps[db] = sweep
        print(render_scale_sweep(db, sweep))
        print()
        for scenario in sweep:
            for mode, summary in sweep[scenario].items():
                cons = summary.get("consistency")
                if cons is None:
                    continue
                count = unexpected_violations(cons)
                if count:
                    print(f"unexpected violations: {db}/{scenario}"
                          f"/{mode}: {count}", file=sys.stderr)
                unexpected += count
    _write_report(args, sweeps)
    if args.strict and unexpected:
        print(f"FAIL: {unexpected} unexpected violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_energy(args) -> int:
    """Energy/cost campaign: RF x CL round x power-management mode with
    joules/op and $/Mops per cell, oracle-checked.  ``--strict`` fails
    the process on any violation the cell's consistency level does not
    already permit — a power mode that saved joules by serving staler
    reads than the guarantee allows is a bug, not a saving."""
    from repro.consistency.oracle import unexpected_violations
    scale = QUICK_ENERGY_SCALE if args.quick else EnergyScale()
    sweeps: dict = {}
    unexpected = 0
    for db in args.dbs:
        sweep = energy_sweep(db, scale, runner=_runner(args))
        sweeps[db] = sweep
        print(render_energy_sweep(db, sweep))
        print()
        for rf in sweep:
            for cl, by_power in sweep[rf].items():
                for power, summary in by_power.items():
                    count = unexpected_violations(summary["consistency"])
                    if count:
                        print(f"unexpected violations: {db}/rf={rf}"
                              f"/{cl}/{power}: {count}", file=sys.stderr)
                    unexpected += count
    _write_report(args, sweeps)
    if args.strict and unexpected:
        print(f"FAIL: {unexpected} unexpected violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_perf(args) -> int:
    """Kernel perf trajectory: run the microbenchmark suite + calibrated
    stress cell, optionally write the JSON report (``--out``) and gate
    against a committed baseline (``--baseline``)."""
    def progress(name: str, record: dict) -> None:
        print(f"perf: {name}: {record['per_s']:,.0f} {record['unit']}/s "
              f"({record['wall_s']:.3f}s)", file=sys.stderr, flush=True)

    report = run_perf_suite(quick=args.quick, progress=progress)
    print(render_perf_report(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.profile:
        scale = QUICK_PERF_SCALE if args.quick else PerfScale()
        print()
        print(profile_stress_cell(scale))
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        problems = compare_to_baseline(baseline=baseline, current=report,
                                       max_regression=args.max_regression)
        skips = [p for p in problems if p.startswith("skip:")]
        failures = [p for p in problems if not p.startswith("skip:")]
        for line in skips:
            print(f"perf gate: {line}", file=sys.stderr)
        if failures:
            print(f"perf gate: FAIL vs {args.baseline}:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"perf gate: ok vs {args.baseline} "
              f"(threshold {args.max_regression:.0%})", file=sys.stderr)
    return 0


# -- campaign registry -------------------------------------------------------

@dataclass(frozen=True)
class Arg:
    """One ``add_argument`` call, declaratively."""

    flags: tuple
    kwargs: dict


def _opt(*flags: str, **kwargs) -> Arg:
    return Arg(flags, kwargs)


#: Option groups shared across campaigns, by name.  A campaign lists the
#: group names it takes; campaign-specific options go in ``extra``.
COMMON_OPTIONS: dict[str, Arg] = {
    "quick": _opt("--quick", action="store_true",
                  help="small scale for fast runs"),
    "jobs": _opt("--jobs", type=int, default=1, metavar="N",
                 help="run campaign cells across N worker processes "
                      "(0 = one per CPU core; default 1 = serial)"),
    "no_cache": _opt("--no-cache", action="store_true",
                     help="recompute every cell instead of reusing the "
                          f"cell cache ({default_cache_dir()})"),
    "dbs": _opt("--db", dest="dbs", action="append",
                choices=["hbase", "cassandra"],
                help="database(s) to run (default: both)"),
    "strict": _opt("--strict", action="store_true",
                   help="exit 1 on any violation the configured "
                        "guarantee does not permit"),
    "report": _opt("--report", metavar="PATH",
                   help="also write the full JSON sweep to PATH"),
}


@dataclass(frozen=True)
class Campaign:
    """One ``repro-bench`` subcommand, declaratively.

    ``options`` names entries of :data:`COMMON_OPTIONS`; ``extra`` holds
    campaign-specific :class:`Arg` specs; ``post_parse`` (if set) runs in
    :func:`main` after parsing to fill context-dependent defaults (e.g.
    "no ``--db`` means both databases").
    """

    name: str
    help: str
    func: Callable
    options: tuple = ()
    extra: tuple = ()
    post_parse: Optional[Callable] = None


def _default_dbs(args) -> None:
    if args.dbs is None:
        args.dbs = ["hbase", "cassandra"]


def _default_faults(args) -> None:
    _default_dbs(args)
    if args.faults is None:
        args.faults = ["crash"]


_FIG_OPTIONS = ("quick", "jobs", "no_cache")
_FIG_EXTRA = (_opt("--max-rf", type=int, default=6,
                   help="sweep replication factors 1..N (default 6)"),)

CAMPAIGNS: tuple[Campaign, ...] = (
    Campaign("table1", "print Table 1", cmd_table1),
    Campaign("fig1", "micro benchmark for replication", cmd_fig1,
             options=_FIG_OPTIONS + ("dbs",), extra=_FIG_EXTRA,
             post_parse=_default_dbs),
    Campaign("fig2", "stress benchmark for replication", cmd_fig2,
             options=_FIG_OPTIONS + ("dbs",), extra=_FIG_EXTRA,
             post_parse=_default_dbs),
    Campaign("fig3", "stress benchmark for consistency", cmd_fig3,
             options=_FIG_OPTIONS, extra=_FIG_EXTRA),
    Campaign("failover",
             "fault-injection campaign (availability report)",
             cmd_failover, options=("quick", "dbs", "jobs", "no_cache"),
             extra=(
                 _opt("--fault", dest="faults", action="append",
                      choices=list(FAULT_KINDS),
                      help="fault kind(s) to inject (default: crash)"),
                 _opt("--timeline", action="store_true",
                      help="print per-second timelines with injection "
                           "markers"),
             ),
             post_parse=_default_faults),
    Campaign("tail",
             "tail-latency defense campaign (deadlines, hedged reads, "
             "bounded queues)",
             cmd_tail, options=("quick", "dbs", "jobs", "no_cache"),
             extra=(
                 _opt("--mode", dest="modes", action="append",
                      choices=list(TAIL_MODES),
                      help="defense stack(s) to compare (default: all)"),
                 _opt("--scenario", dest="scenarios", action="append",
                      choices=list(TAIL_SCENARIOS) + ["healthy"],
                      help="stress scenario(s) to run (default: both "
                           "stress scenarios; 'healthy' adds the "
                           "fault-free control cell)"),
             ),
             post_parse=_default_dbs),
    Campaign("check",
             "consistency oracle: explore seeds x fault schedules and "
             "verify the configured guarantees",
             cmd_check,
             options=("quick", "dbs", "strict", "report", "jobs",
                      "no_cache"),
             extra=(
                 _opt("--cl", default="QUORUM",
                      choices=sorted(CHECK_CL_MODES),
                      help="Cassandra consistency round (default QUORUM; "
                           "ignored for HBase)"),
                 _opt("--seeds", type=int, default=25, metavar="N",
                      help="explore seeds 0..N-1 (default 25)"),
                 _opt("--fault", choices=list(FAULT_KINDS),
                      help="fault-schedule template to inject per seed "
                           "(default: healthy runs)"),
                 _opt("--no-repair", action="store_true",
                      help="disable read repair so weak-CL staleness "
                           "stays observable"),
             ),
             post_parse=_default_dbs),
    Campaign("adaptive",
             "adaptive-consistency campaign: per-request CL policies "
             "under a latency/staleness SLO",
             cmd_adaptive, options=("quick", "report", "jobs", "no_cache"),
             extra=(
                 _opt("--policy", dest="policies", action="append",
                      choices=list(ADAPTIVE_POLICIES),
                      help="policy/policies to run (default: all)"),
                 _opt("--timeline", action="store_true",
                      help="print per-window CL decision timelines next "
                           "to the latency windows"),
                 _opt("--digests", action="store_true",
                      help="print each run's decision-log digest (the "
                           "determinism witness)"),
             )),
    Campaign("geo",
             "geo-replication campaign: DC-aware consistency levels "
             "under WAN faults and DC partitions",
             cmd_geo, options=("quick", "strict", "report", "jobs",
                               "no_cache"),
             extra=(
                 _opt("--mode", dest="modes", action="append",
                      choices=sorted(GEO_CL_MODES),
                      help="consistency mode(s) to compare "
                           "(default: all)"),
                 _opt("--scenario", dest="scenarios", action="append",
                      choices=list(GEO_SCENARIOS),
                      help="WAN scenario(s) to run (default: all)"),
             )),
    Campaign("surge",
             "flash-crowd survival campaign: open-loop arrivals vs "
             "client-tier defense stacks",
             cmd_surge,
             options=("quick", "dbs", "strict", "report", "jobs",
                      "no_cache"),
             extra=(
                 _opt("--mode", dest="modes", action="append",
                      choices=list(SURGE_MODES),
                      help="defense stack(s) to compare (default: all)"),
                 _opt("--scenario", dest="scenarios", action="append",
                      choices=list(SURGE_SCENARIOS),
                      help="arrival scenario(s) to run (default: all)"),
             ),
             post_parse=_default_dbs),
    Campaign("scale",
             "elasticity campaign: live scale-out/in while serving, "
             "oracle-checked across every topology change",
             cmd_scale,
             options=("quick", "dbs", "strict", "report", "jobs",
                      "no_cache"),
             extra=(
                 _opt("--mode", dest="modes", action="append",
                      choices=list(SCALE_MODES),
                      help="scale mode(s) to compare: static control, "
                           "manual schedule, autoscaler (default: all)"),
                 _opt("--scenario", dest="scenarios", action="append",
                      choices=list(ELASTIC_SCENARIOS),
                      help="arrival shape(s) to run (default: all)"),
             ),
             post_parse=_default_dbs),
    Campaign("energy",
             "energy/cost campaign: joules per op and dollars per Mops "
             "across RF x CL x power-management modes",
             cmd_energy,
             options=("quick", "dbs", "strict", "report", "jobs",
                      "no_cache"),
             post_parse=_default_dbs),
    Campaign("perf",
             "kernel microbenchmarks + calibrated stress cell (the perf "
             "trajectory artifact)",
             cmd_perf, options=("quick",),
             extra=(
                 _opt("--out", metavar="PATH",
                      help="also write the JSON report to PATH (default: "
                           "no file, so the committed BENCH_perf.json is "
                           "only ever replaced on purpose)"),
                 _opt("--baseline", metavar="PATH",
                      help="compare against a baseline BENCH_perf.json "
                           "and exit 1 on regression"),
                 _opt("--max-regression", type=float, default=0.25,
                      metavar="FRAC",
                      help="tolerated fractional throughput drop vs the "
                           "baseline (default 0.25)"),
                 _opt("--profile", action="store_true",
                      help="also cProfile the stress cell and print the "
                           "hottest functions"),
             )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures")
    sub = parser.add_subparsers(dest="command", required=True)
    for campaign in CAMPAIGNS:
        p = sub.add_parser(campaign.name, help=campaign.help)
        for option in campaign.options:
            spec = COMMON_OPTIONS[option]
            p.add_argument(*spec.flags, **spec.kwargs)
        for spec in campaign.extra:
            p.add_argument(*spec.flags, **spec.kwargs)
        p.set_defaults(func=campaign.func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for campaign in CAMPAIGNS:
        if campaign.name == args.command and campaign.post_parse is not None:
            campaign.post_parse(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
