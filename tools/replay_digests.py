"""Compare two checkouts' simulated behaviour with ``diff``.

Runs ``repro-bench`` invocations in-process at ``--jobs 1 --no-cache``
with a :class:`repro.sim.trace.KernelTracer` attached to every
``Environment`` the moment it is constructed, and prints one line per
invocation: argv, exit code, environments created, total kernel events,
SHA-256 over the per-environment trace digests (creation order), SHA-256
of stdout, and SHA-256 of the ``--report`` JSON where the subcommand has
that flag.  Dependency-free::

    PYTHONHASHSEED=0 python tools/replay_digests.py > /tmp/after.txt
    diff /tmp/before.txt /tmp/after.txt     # before: same command, other checkout

Each positional argument is one invocation, quoted (``"geo --quick
--strict"``); with none, the built-in list below runs (~10 min).
``--out DIR`` also keeps each invocation's stdout and report JSON there,
to look at when a line differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The refactor-acceptance invocations: every campaign at ``--quick``,
#: every node fault kind, both oracle modes.
DEFAULT_INVOCATIONS = [
    "fig1 --quick", "fig2 --quick", "fig3 --quick",
    *(f"failover --quick --timeline --fault {kind}"
      for kind in ("crash", "flap", "partition", "slow_nic", "slow_disk")),
    "tail --quick", "tail --quick --scenario healthy",
    "check --quick --seeds 8 --cl QUORUM --strict",
    "check --quick --db cassandra --cl ONE --fault partition --no-repair "
    "--seeds 6 --strict",
    "adaptive --quick --timeline --digests",
    "geo --quick --strict", "surge --quick --strict",
    "scale --quick --strict", "energy --quick --strict",
    "ablation --quick",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(invocation: str, out_dir: str, index: int) -> str:
    """Run one invocation under tracers, leaving its stdout (and report
    JSON) in ``out_dir``; returns its result line."""
    from repro.core import cli
    from repro.sim.kernel import Environment
    from repro.sim.trace import KernelTracer

    argv = shlex.split(invocation)
    flags = {flag for arg in cli.campaign_args(cli.CAMPAIGNS[argv[0]])
             for flag in arg.flags}
    if "--jobs" in flags:
        argv += ["--jobs", "1", "--no-cache"]
    stem = f"{index:02d}-{argv[0]}"
    report_path = os.path.join(out_dir, f"{stem}.report.json")
    if "--report" in flags:
        argv += ["--report", report_path]

    tracers: list[KernelTracer] = []
    plain_init = Environment.__init__

    def traced_init(env, *args, **kwargs) -> None:
        plain_init(env, *args, **kwargs)
        tracers.append(KernelTracer(env))

    stdout = io.StringIO()
    Environment.__init__ = traced_init
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse errors
                code = exc.code
    finally:
        Environment.__init__ = plain_init

    text = stdout.getvalue()
    with open(os.path.join(out_dir, f"{stem}.stdout.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    report = "-"
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            report = _sha(fh.read())
    trace = _sha("\n".join(t.digest() for t in tracers).encode())
    return (f"{invocation} | exit={code} envs={len(tracers)} "
            f"events={sum(t.events for t in tracers)} trace={trace} "
            f"stdout={_sha(text.encode())} report={report}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("invocations", nargs="*", metavar="'ARGV'",
                        help="repro-bench argument lists, one quoted "
                             "string each (default: the built-in list)")
    parser.add_argument("--out", metavar="DIR",
                        help="keep each invocation's stdout and report here")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as scratch:
        # The cell cache is bypassed, but never let a run touch the user's.
        os.environ.setdefault("REPRO_CELL_CACHE",
                              os.path.join(scratch, "cells"))
        out_dir = args.out or scratch
        os.makedirs(out_dir, exist_ok=True)
        for index, invocation in enumerate(args.invocations
                                           or DEFAULT_INVOCATIONS):
            print(replay(invocation, out_dir, index), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
