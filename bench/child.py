"""One repetition of one workload in this (fresh) process.

Prints exactly one JSON line.  ``run.py`` starts one of these at a time;
nothing here is reused across repetitions, so every timing includes what
a cold interpreter pays.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import heapq
import json
import resource
import sys
import time

#: Work items in one calibration loop: 0.30 s on the builder's host when
#: it is quiet (``run.CALIBRATION_REFERENCE_S``).
CALIBRATION_ITEMS = 250_000


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop shaped like the
    simulator's hot path: slotted objects, heap push/pop of tuples, a
    generator resumed per item, dict and list traffic.  Timed right before
    and right after the measured phase, it says how fast this host was
    running at that moment, which ``run.py`` uses to scale the timings."""
    class Item:
        __slots__ = ("callbacks", "value")

        def __init__(self, value):
            self.callbacks = []
            self.value = value

    def echo():
        value = 0
        while True:
            value = (yield value) + 1

    resume = echo()
    next(resume)
    queue: list = []
    seen: dict = {}
    started = time.perf_counter()
    for i in range(CALIBRATION_ITEMS):
        heapq.heappush(queue, ((i * 7919) % 1000, i, Item(i)))
        if len(queue) > 512:  # bounded, so it does not move peak_rss_mb
            item = heapq.heappop(queue)[2]
            seen[item.value & 1023] = resume.send(item.value)
            item.callbacks.append(seen)
    return time.perf_counter() - started


class Spans:
    """Harness spans: name, start, end (seconds since spawn) and parent,
    kept in memory and emitted with the result."""

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.records: list[dict] = []
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, started_at: float | None = None):
        record = {"name": name,
                  "start": (time.monotonic() if started_at is None
                            else started_at) - self.origin,
                  "end": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.records.append(record)
        self._stack.append(name)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic() - self.origin

    def duration(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--profile", action="store_true",
                        help="wrap the measured phase in cProfile")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() just before it "
                             "started this process (Linux: one clock for "
                             "all processes), so set-up includes "
                             "interpreter start-up")
    args = parser.parse_args(argv)
    spans = Spans(args.spawned_at if args.spawned_at is not None
                  else time.monotonic())

    with spans.span("setup", started_at=spans.origin):
        with spans.span("import", started_at=spans.origin):
            import adapter
            import layers
        workload = adapter.WORKLOADS[args.workload]
        state = workload.setup(args.seed, spans.span)

    profiler = cProfile.Profile() if args.profile else None
    # A traced repetition supplies counts, never timings: no calibration.
    calibrations = [] if args.profile else [calibrate()]
    cpu_before = time.process_time()
    with spans.span("measured"):
        if profiler is not None:
            profiler.enable()
        with spans.span("run"):
            outcome = workload.run(state)
        with spans.span("summarize"):
            result = workload.summarize(state, outcome)
        if profiler is not None:
            profiler.disable()
    run_cpu_s = time.process_time() - cpu_before
    if calibrations:
        calibrations.append(calibrate())
        result["calib_s"] = sum(calibrations) / len(calibrations)

    result.update(
        workload=args.workload, seed=args.seed, traced=args.profile,
        setup_s=spans.duration("setup"),
        run_wall_s=spans.duration("measured"),
        run_cpu_s=run_cpu_s,
        # Linux reports ru_maxrss in KiB.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        spans=spans.records)
    if profiler is not None:
        entries = profiler.getstats()
        profile = layers.roll_up(entries, adapter.PACKAGE_ROOT)
        profile["hooks"] = {
            name: layers.count_calls(entries, targets)
            for name, targets in adapter.PROFILE_HOOKS.items()}
        result["profile"] = profile
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
