"""Check the simulated behaviour every campaign produces against the
golden store, or re-record it.

Runs ``repro-bench`` invocations in-process at ``--jobs 1 --no-cache``
with a :class:`repro.sim.trace.KernelTracer` attached to every
``Environment`` the moment it is constructed, and prints one line per
invocation: argv, exit code, environments created, total kernel events,
SHA-256 over the per-environment trace digests (creation order), SHA-256
of stdout, and SHA-256 of the ``--report`` JSON where the subcommand has
that flag.  Dependency-free::

    PYTHONHASHSEED=0 python tools/replay_digests.py            # check
    PYTHONHASHSEED=0 python tools/replay_digests.py --update   # re-record
    PYTHONHASHSEED=0 python tools/replay_digests.py "geo --quick --strict"

With no invocation, every line of ``tests/golden/replay.txt`` runs
(~15 min) and is compared with the store, each stdout with its
``tests/golden/replay/NN-<campaign>.stdout.txt``; any difference exits 1
with a unified diff.  Each positional argument is one invocation, quoted;
those in the store are compared too.  ``--update`` re-records every line
and stdout, renders each stdout into the ``<!-- golden NN-<campaign> -->``
blocks of EXPERIMENTS.md, then runs the pinned test modules with
``--update-golden``, so ``git diff tests/golden EXPERIMENTS.md`` shows
everything that moved.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import difflib
import hashlib
import io
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
REPLAY = os.path.join(GOLDEN, "replay.txt")
STDOUTS = os.path.join(GOLDEN, "replay")
EXPERIMENTS = os.path.join(ROOT, "EXPERIMENTS.md")

#: A rendered block of EXPERIMENTS.md: the marker names a stored stdout,
#: and the fenced block between the markers holds that file verbatim.
BLOCK = re.compile(r"(<!-- golden (\S+) -->\n```text\n)(.*?)"
                   r"(```\n<!-- /golden -->)", re.S)

#: The refactor-acceptance invocations: every campaign at ``--quick``,
#: every node fault kind alone and three of them in one run, both oracle
#: modes.
INVOCATIONS = [
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
    "failover --quick --timeline --fault flap --fault partition "
    "--fault slow_nic",
    # The paper's table and figures at full scale, and the ablations:
    # the numbers EXPERIMENTS.md publishes.
    "table1", "fig1", "fig2", "fig3", "ablation",
]


class ReplayError(Exception):
    """An invocation that is not one: no such campaign, or a usage error."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_name(index: int, invocation: str) -> str:
    return f"{index:02d}-{invocation.split()[0]}.stdout.txt"


def replay(invocation: str, out_dir: str, index: int) -> tuple[str, str]:
    """Run one invocation under tracers (its report JSON, if any, goes to
    ``out_dir``); returns its result line and its stdout."""
    from repro.core import cli
    from repro.sim.kernel import Environment
    from repro.sim.trace import KernelTracer

    argv = shlex.split(invocation)
    if not argv or argv[0] not in cli.CAMPAIGNS:
        raise ReplayError(
            f"{invocation!r}: no campaign {argv[0] if argv else ''!r}; "
            f"the campaigns are {', '.join(sorted(cli.CAMPAIGNS))}")
    flags = {flag for arg in cli.campaign_args(cli.CAMPAIGNS[argv[0]])
             for flag in arg.flags}
    if "--jobs" in flags:
        argv += ["--jobs", "1", "--no-cache"]
    report_path = os.path.join(out_dir, f"{index:02d}-{argv[0]}.report.json")
    if "--report" in flags:
        argv += ["--report", report_path]

    tracers: list[KernelTracer] = []
    plain_init = Environment.__init__

    def traced_init(env, *args, **kwargs) -> None:
        plain_init(env, *args, **kwargs)
        tracers.append(KernelTracer(env))

    stdout, stderr = io.StringIO(), io.StringIO()
    Environment.__init__ = traced_init
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit:  # argparse: a usage error, or --help
                raise ReplayError(f"{invocation!r}: "
                                  f"{stderr.getvalue().strip()}") from None
    finally:
        Environment.__init__ = plain_init

    text = stdout.getvalue()
    report = "-"
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            report = _sha(fh.read())
    trace = _sha("\n".join(t.digest() for t in tracers).encode())
    return (f"{invocation} | exit={code} envs={len(tracers)} "
            f"events={sum(t.events for t in tracers)} trace={trace} "
            f"stdout={_sha(text.encode())} report={report}"), text


def read_store() -> dict[str, tuple[int, str, str]]:
    """``invocation -> (index, line, stdout)`` of the golden store."""
    store = {}
    with open(REPLAY, encoding="utf-8") as fh:
        for index, line in enumerate(fh.read().splitlines()):
            invocation = line.partition(" | ")[0]
            with open(os.path.join(STDOUTS, stdout_name(index, invocation)),
                      encoding="utf-8") as out:
                store[invocation] = (index, line, out.read())
    return store


def render(document: str) -> str:
    """``document`` with every marked block holding its stored stdout."""
    def stdout(match: re.Match) -> str:
        path = os.path.join(STDOUTS, f"{match[2]}.stdout.txt")
        if not os.path.exists(path):
            raise ReplayError(f"<!-- golden {match[2]} -->: no "
                              f"tests/golden/replay/{match[2]}.stdout.txt")
        with open(path, encoding="utf-8") as fh:
            return match[1] + fh.read() + match[4]

    # A marker whose block is missing would otherwise swallow the next
    # block: every marker must start a match of its own.
    if document.count("<!-- golden ") != len(BLOCK.findall(document)):
        raise ReplayError("a <!-- golden NN-name --> marker opens no "
                          "```text block closed by <!-- /golden -->")
    return BLOCK.sub(stdout, document)


def pinned_test_modules() -> list[str]:
    """Every test module with a test that takes the ``golden`` fixture."""
    tests = os.path.join(ROOT, "tests")
    modules = []
    for name in sorted(os.listdir(tests)):
        if name.startswith("test_") and name.endswith(".py"):
            path = os.path.join(tests, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if "golden" in text and any(
                    isinstance(node, ast.FunctionDef)
                    and any(arg.arg == "golden" for arg in node.args.args)
                    for node in ast.walk(ast.parse(text))):
                modules.append(os.path.relpath(path, ROOT))
    return modules


def _differences(line: str, text: str, golden: tuple[int, str, str]) -> str:
    index, golden_line, golden_text = golden
    diff = [] if line == golden_line else [f"- {golden_line}\n",
                                           f"+ {line}\n"]
    name = os.path.join("tests", "golden", "replay",
                        stdout_name(index, line.partition(" | ")[0]))
    diff += difflib.unified_diff(golden_text.splitlines(True),
                                 text.splitlines(True), name, "this run")
    return "".join(diff)


def _update(lines: list[str], texts: list[str]) -> int:
    shutil.rmtree(STDOUTS, ignore_errors=True)
    os.makedirs(STDOUTS)
    with open(REPLAY, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in lines))
    for index, (invocation, text) in enumerate(zip(INVOCATIONS, texts)):
        with open(os.path.join(STDOUTS, stdout_name(index, invocation)), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    with open(EXPERIMENTS, encoding="utf-8") as fh:
        document = render(fh.read())
    with open(EXPERIMENTS, "w", encoding="utf-8") as fh:
        fh.write(document)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--update-golden", *pinned_test_modules()], cwd=ROOT, env=env
    ).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("invocations", nargs="*", metavar="'ARGV'",
                        help="repro-bench argument lists, one quoted "
                             "string each (default: every stored one)")
    parser.add_argument("--update", action="store_true",
                        help="re-record tests/golden instead of checking it")
    args = parser.parse_args(argv)
    if args.update and args.invocations:
        parser.error("--update re-records every invocation; name none")
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("replay_digests: the golden store is recorded with "
              "PYTHONHASHSEED=0; run under it", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    store = {} if args.update else read_store()
    lines, texts, diffs = [], [], []
    with tempfile.TemporaryDirectory() as scratch:
        # The cell cache is bypassed, but never let a run touch the user's.
        os.environ.setdefault("REPRO_CELL_CACHE",
                              os.path.join(scratch, "cells"))
        for index, invocation in enumerate(args.invocations or INVOCATIONS):
            try:
                line, text = replay(invocation, scratch, index)
            except ReplayError as exc:
                print(f"replay_digests: {exc}", file=sys.stderr)
                return 2
            print(line, flush=True)
            lines.append(line)
            texts.append(text)
            if invocation in store:
                diffs.append(_differences(line, text, store[invocation]))
            elif not args.invocations and not args.update:
                diffs.append(f"+ {line}  (no golden line)\n")
    if args.update:
        return _update(lines, texts)
    differing = [diff for diff in diffs if diff]
    if differing:
        print(f"\n{len(differing)} of {len(diffs)} invocations differ from "
              "tests/golden:\n\n" + "\n".join(differing), end="")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
