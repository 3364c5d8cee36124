"""``repro-bench``: regenerate the paper's tables and figures from the CLI.

Examples::

    repro-bench table1
    repro-bench fig1 --db cassandra --quick
    repro-bench fig2 --quick
    repro-bench fig3
    repro-bench surge --quick --db cassandra

Every subcommand is one :class:`~repro.core.sweep.Campaign` entry of
:data:`~repro.core.sweep.CAMPAIGNS`: :func:`build_parser` derives its
flags from the entry (the shared ``--quick/--jobs/--no-cache/--db/
--strict/--report`` groups, one repeatable flag per axis with the axis'
legal values as ``choices=``, the entry's own extras) and
:func:`cmd_campaign` runs it — cells, table, detail blocks, oracle gate,
``--report``.  Only ``table1`` (nothing to run) and ``check`` (a seed
matrix with replay verification) keep bespoke bodies.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional, Sequence

from repro.core.explorer import check_sweep
from repro.consistency.oracle import unexpected_violations
from repro.core.report import (render_check_report, render_progress,
                               render_table, walk_leaves)
from repro.core.runner import CellRunner, default_cache_dir
from repro.core.sweep import (CAMPAIGNS, Arg, Campaign, _opt,
                              render_campaign, run_campaign)
from repro.ycsb.workload import STRESS_WORKLOADS

__all__ = ["CAMPAIGNS", "Campaign", "build_parser", "main"]


def _scale(args):
    return args.campaign.quick if args.quick else args.campaign.full


def _runner(args) -> CellRunner:
    """``--jobs``/``--no-cache`` wired to :class:`CellRunner`, progress
    lines on stderr as cells finish."""
    completed = [0]

    def progress(event) -> None:
        completed[0] += 1
        print(render_progress(event, completed[0]), file=sys.stderr,
              flush=True)

    return CellRunner(jobs=args.jobs, cache=not args.no_cache,
                      progress=progress)


def _oracle_gate(label: Sequence, leaves: Iterable) -> int:
    """Count the violations the leaves' consistency levels do not
    already permit, naming each offending leaf on stderr."""
    unexpected = 0
    for key, summary in leaves:
        report = summary.get("consistency")
        if report is None:  # unchecked cell (e.g. HBase under surge)
            continue
        count = unexpected_violations(report)
        if count:
            print("unexpected violations: "
                  f"{'/'.join(map(str, (*label, *key)))}: {count}",
                  file=sys.stderr)
        unexpected += count
    return unexpected


def _finish(args, payload: dict, unexpected: int = 0) -> int:
    """The shared tail: ``--report`` writes the machine-readable result
    next to the rendered table, ``--strict`` turns unexpected violations
    into exit status 1."""
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.report}", file=sys.stderr)
    if getattr(args, "strict", False) and unexpected:
        print(f"FAIL: {unexpected} unexpected violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_campaign(args) -> int:
    """Run one campaign per selected database: table, detail blocks
    (``--timeline``/``--digests``), oracle gate, ``--report``."""
    campaign = args.campaign
    per_db = len(campaign.dbs) > 1
    params = {name: getattr(args, name)
              for name in (*(axis.name for axis in campaign.axes
                             if axis.flag),
                           *(arg.dest for arg in campaign.extra))}
    sweeps: dict = {}
    unexpected = 0
    for db in getattr(args, "dbs", None) or campaign.dbs:
        sweep = sweeps[db] = run_campaign(campaign, db, _scale(args),
                                          runner=_runner(args), **params)
        print(render_campaign(campaign, sweep, db))
        leaves = list(walk_leaves(sweep, len(campaign.keys)))
        for flag, _, render in campaign.details:
            if getattr(args, flag):
                print()
                print(render(db, leaves))
        if per_db:
            print()
        if campaign.gate:
            unexpected += _oracle_gate([db] if per_db else [], leaves)
    return _finish(args, sweeps if per_db else sweep, unexpected)


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


def cmd_check(args) -> int:
    """Consistency oracle: explore seeds, print the verdict, and fail
    the process (``--strict``) on any violation the configured
    guarantee does not permit."""
    sweeps: dict = {}
    for db in args.dbs or args.campaign.dbs:
        sweep = sweeps[db] = check_sweep(
            db, mode=args.cl, seeds=args.seeds, fault=args.fault,
            no_repair=args.no_repair,
            scale=_scale(args), runner=_runner(args))
        print(render_check_report(db, sweep))
        print()
    return _finish(args, sweeps, sum(sweep["unexpected_violations"]
                                     for sweep in sweeps.values()))


#: Campaigns whose CLI body is not the generic path.
_BESPOKE = {"table1": cmd_table1, "check": cmd_check}

#: Flags shared across campaigns; which ones a campaign takes follows
#: from its table entry (see :func:`campaign_args`).
_QUICK = _opt("--quick", action="store_true",
              help="small scale for fast runs")
_STRICT = _opt("--strict", action="store_true",
               help="exit 1 on any violation the configured guarantee "
                    "does not permit")
_REPORT = _opt("--report", metavar="PATH",
               help="also write the full JSON sweep to PATH")
_JOBS = _opt("--jobs", type=int, default=1, metavar="N",
             help="run campaign cells across N worker processes "
                  "(0 = one per CPU core; default 1 = serial)")
_NO_CACHE = _opt("--no-cache", action="store_true",
                 help="recompute every cell instead of reusing the "
                      f"cell cache ({default_cache_dir()})")


def campaign_args(campaign: Campaign) -> list[Arg]:
    """Every flag of one campaign's subcommand, derived from its entry."""
    args = []
    if campaign.full is not None:  # it runs cells
        args += [_QUICK, _JOBS, _NO_CACHE]
        if len(campaign.dbs) > 1:
            args.append(_opt("--db", dest="dbs", action="append",
                             choices=list(campaign.dbs),
                             help="database(s) to run (default: both)"))
    if campaign.gate:
        args.append(_STRICT)
    if campaign.report:
        args.append(_REPORT)
    args += [_opt(axis.flag, dest=axis.name, action="append",
                  choices=list(axis.values), help=axis.help)
             for axis in campaign.axes if axis.flag]
    args += campaign.extra
    args += [_opt(f"--{flag}", action="store_true", help=text)
             for flag, text, _ in campaign.details]
    return args


def build_parser(campaigns: Optional[Iterable[Campaign]] = None
                 ) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures")
    sub = parser.add_subparsers(dest="command", required=True)
    for campaign in campaigns or CAMPAIGNS.values():
        p = sub.add_parser(campaign.name, help=campaign.help)
        for spec in campaign_args(campaign):
            p.add_argument(*spec.flags, **spec.kwargs)
        p.set_defaults(campaign=campaign,
                       func=_BESPOKE.get(campaign.name, cmd_campaign))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Values a flag's type admits but no run can take.  An RF sweep
    # stops at the servers of the scale it runs at.
    servers = _scale(args).n_nodes - 1 if hasattr(args, "rfs") else None
    problem = None
    if servers is not None and not 1 <= args.rfs.stop - 1 <= servers:
        problem = (f"--max-rf {args.rfs.stop - 1}: choose 1..{servers}, "
                   "the servers at this scale")
    elif getattr(args, "jobs", 0) < 0:
        problem = f"--jobs {args.jobs}: choose 0 (one per CPU core) or more"
    elif getattr(args, "seeds", 1) < 1:
        problem = f"--seeds {args.seeds}: choose 1 or more"
    if problem is not None:
        parser.exit(2, f"repro-bench {args.command}: error: {problem}\n")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
