"""Paper-style text rendering of sweep results.

The generic table renderer is :func:`repro.core.sweep.render_campaign`:
it walks a sweep's leaves (:func:`walk_leaves`) and builds one row per
leaf from the campaign's key columns plus a column list — a tuple of
``(header, extractor(leaf))`` pairs.  This module holds those column
lists, the per-leaf detail blocks behind ``--timeline``/``--digests``,
and the two renderers that are not one-row-per-leaf tables (Figure 3's
transposed panels and the ``check`` verdict).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["ABLATION_COLUMNS", "ADAPTIVE_COLUMNS", "ENERGY_CAMPAIGN_COLUMNS",
           "ENERGY_COLUMNS", "FAILOVER_COLUMNS", "GEO_COLUMNS", "SCALE_COLUMNS",
           "STRESS_COLUMNS", "SURGE_COLUMNS", "TAIL_COLUMNS",
           "adaptive_digests", "adaptive_slo_line", "adaptive_timelines",
           "energy_rollup", "failover_timelines", "micro_columns",
           "render_adaptive_timeline", "render_check_report",
           "render_consistency_panels", "render_failover_timeline",
           "render_progress", "render_table",
           "run_energy", "walk_leaves"]


def walk_leaves(sweep: dict, depth: int,
                key: tuple = ()) -> Iterator[tuple[tuple, dict]]:
    """Yield ``(key, leaf)`` for every leaf ``depth`` levels into a
    nested sweep dict, in insertion order."""
    if depth == 0:
        yield key, sweep
        return
    for part, child in sweep.items():
        yield from walk_leaves(child, depth - 1, key + (part,))


def run_energy(summary: dict) -> tuple[float, float, int]:
    """One run summary's ``(joules, usd, ops)`` for :func:`energy_rollup`."""
    return (summary["energy"]["total_j"], summary["cost"]["total_usd"],
            summary["ops"])


def energy_rollup(parts: Iterable[tuple[float, float, int]]) -> dict:
    """Aggregate joules/op + $/Mops over ``(joules, usd, ops)`` triples.

    Energy totals add, so the only correct multi-run aggregate is
    sum-of-joules over sum-of-ops (averaging the per-run ratios would
    overweight small runs).  Both keys are ``None`` — rendered as
    ``max`` — when no operation completed.
    """
    total_j = usd = 0.0
    ops = 0
    for joules, dollars, count in parts:
        total_j += joules
        usd += dollars
        ops += count
    if not ops:
        return {"joules_per_op": None, "usd_per_mops": None}
    return {"joules_per_op": total_j / ops,
            "usd_per_mops": usd / (ops / 1e6)}

def render_progress(event, completed: int) -> str:
    """One line per finished sweep cell (a :class:`CellProgress`);
    ``completed`` is the caller's running completion count."""
    status = "cached" if event.cached else f"{event.duration_s:.1f}s"
    return f"[{completed}/{event.total}] {event.label} ({status})"


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Fixed-width text table (rows may hold numbers; floats get 1–3 dp)."""
    def fmt(cell) -> str:
        if cell is None:
            return "max"
        if isinstance(cell, float):
            if cell >= 100:
                return f"{cell:.1f}"
            return f"{cell:.3f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# -- column lists: (header, extractor(leaf)) ---------------------------------

#: The ``J/op`` + ``$/Mops`` pair every campaign table carries.  A
#: ``None`` (an all-errors run: the energy was real, the rate is
#: unbounded) renders as ``max``.
ENERGY_COLUMNS = (("J/op", itemgetter("joules_per_op")),
                  ("$/Mops", itemgetter("usd_per_mops")))

_LATENCY_COLUMNS = (("p50 ms", itemgetter("p50_ms")),
                    ("p95 ms", itemgetter("p95_ms")),
                    ("p99 ms", itemgetter("p99_ms")),
                    ("p99.9 ms", itemgetter("p999_ms")))


def _at(section: str, field: str):
    """Extractor for ``leaf[section][field]``."""
    return lambda leaf: leaf[section][field]


def _errors_of(summary: dict, *kinds: str) -> int:
    """How many of a run's errors were of the named kinds."""
    by_type = summary.get("errors_by_type", {})
    return sum(by_type.get(kind, 0) for kind in kinds)


def _row_energy(per_op: dict) -> dict:
    # Joules add across the op tests, so a Figure 1 row's aggregate is
    # recovered as sum(J/op x ops) over sum(ops).
    return energy_rollup(
        ((cell["joules_per_op"] or 0.0) * cell["ops"],
         (cell["usd_per_mops"] or 0.0) * (cell["ops"] / 1e6), cell["ops"])
        for cell in per_op.values())


def micro_columns(ops: Sequence[str]) -> tuple:
    """Figure 1: mean latency (ms) per op test, one row per RF."""
    return (*((f"{op} ms", lambda per_op, op=op: per_op[op]["mean_ms"])
              for op in ops),
            ("J/op", lambda per_op: _row_energy(per_op)["joules_per_op"]),
            ("$/Mops", lambda per_op: _row_energy(per_op)["usd_per_mops"]))


#: Figure 2: peak throughput and its latency per (RF, workload).
STRESS_COLUMNS = (("peak ops/s", itemgetter("peak_throughput")),
                  ("latency ms", itemgetter("latency_ms")),
                  *ENERGY_COLUMNS)

#: Ablations: the measured op test's latency per (RF, setting).
ABLATION_COLUMNS = (("mean ms", itemgetter("mean_ms")),
                    ("p99 ms", itemgetter("p99_ms")),
                    *ENERGY_COLUMNS)


def _opt_s(value) -> str:
    """Optional seconds: ``-`` when the metric never triggered."""
    return "-" if value is None else f"{value:.1f}"


#: Availability report, one row per (fault kind, CL mode).
FAILOVER_COLUMNS = (
    ("ops", itemgetter("ops")),
    ("errors", _at("failover", "errors")),
    ("detect s", lambda s: _opt_s(s["failover"]["time_to_detection_s"])),
    ("recover s", lambda s: _opt_s(s["failover"]["time_to_recovery_s"])),
    ("err win s", lambda s: f"{s['failover']['error_window_s']:.1f}"),
    ("stale", _at("failover", "stale_reads")),
    *ENERGY_COLUMNS,
    ("errors by type", lambda s: ", ".join(
        f"{name}={count}" for name, count
        in s["failover"]["errors_by_type"].items()) or "-"),
)

#: ``errors_by_type`` names folded into the tail table's "timeout"
#: column (a spent budget gets its own column; everything else is
#: lumped under "other").
_TAIL_TIMEOUT_KINDS = ("RpcTimeout", "ReadTimeoutError", "WriteTimeoutError")

#: Tail-defense table, one row per (scenario, defense mode).  Besides
#: the latency distribution up to p99.9 the table splits the error
#: count into shed requests (``Overloaded`` — a bounded queue or the
#: coordinator's admission control refusing work), spent end-to-end
#: budgets (``DeadlineExceeded``) and plain timeouts.
TAIL_COLUMNS = (
    ("ops/s", itemgetter("throughput")),
    *_LATENCY_COLUMNS,
    ("errors", itemgetter("errors")),
    ("shed", lambda s: _errors_of(s, "Overloaded")),
    ("deadline", lambda s: _errors_of(s, "DeadlineExceeded")),
    ("timeout", lambda s: _errors_of(s, *_TAIL_TIMEOUT_KINDS)),
    ("other", lambda s: s["errors"] - _errors_of(
        s, "Overloaded", "DeadlineExceeded", *_TAIL_TIMEOUT_KINDS)),
    *ENERGY_COLUMNS,
)


def _checked(field: str):
    """One ``consistency`` report field; ``-`` on an unchecked run (HBase
    cells skip the oracle under surge — see its cell builder)."""
    return lambda summary: (summary.get("consistency") or {}).get(field, "-")


def _tier(summary: dict, part: str, field: str, default):
    """One ``clienttier`` accounting field (absent on closed-loop runs)."""
    return ((summary.get("clienttier") or {}).get(part) or {}).get(
        field, default)


def _cache_hit_rate(summary: dict):
    rate = _tier(summary, "cache", "hit_rate", None)
    return "-" if rate is None else rate


#: Flash-crowd survival table, one row per (scenario, defense mode).
#: The offered/goodput pair is the campaign's headline (open-loop
#: arrivals make offered load an input, so collapse reads as goodput
#: falling away from it); the refusal columns then say *where* the
#: missing requests went — shed by the leveling queue, clipped by the
#: rate limiter, fast-failed by an open breaker, or lost to store-side
#: errors — and the cache hit rate plus max staleness lag price what
#: the cache-aside tier traded for the surviving goodput.
SURGE_COLUMNS = (
    ("offered", lambda s: s.get("offered", s["ops"])),
    ("goodput/s", itemgetter("throughput")),
    *_LATENCY_COLUMNS,
    ("shed", lambda s: _errors_of(s, "LoadShed")),
    ("ratelim", lambda s: _errors_of(s, "RateLimited")),
    ("breaker", lambda s: _errors_of(s, "BreakerOpen")),
    ("retried", lambda s: _tier(s, "retry", "retried", 0)),
    ("store err", lambda s: s["errors"] - _errors_of(
        s, "LoadShed", "RateLimited", "BreakerOpen")),
    ("cache hr", _cache_hit_rate),
    ("max lag s", _checked("max_staleness_lag_s")),
    *ENERGY_COLUMNS,
)


def _scale_report(field: str, default=0):
    return lambda summary: (summary.get("scale") or {}).get(field, default)


def _phase(name: str):
    """``p95/ops`` for one transfer phase; ``-`` when it saw no traffic."""
    def cell(summary: dict) -> str:
        stats = _scale_report("phases", {})(summary).get(name) or {}
        if not stats.get("ops"):
            return "-"
        return f"{stats['p95_ms']:.1f}/{stats['ops']}"
    return cell


#: Elasticity table, one row per (arrival scenario, scale mode).  The
#: before/during/after columns cut each run's latency by the engine's
#: transfer windows (``p95 ms/ops``), so the cost of the move itself
#: and the payoff once the new node serves read side by side against
#: the static control; the transfer columns say what the move was
#: (bytes streamed into a Cassandra joiner, regions rebalanced onto an
#: HBase server) and the stale/violation columns price its safety.
SCALE_COLUMNS = (
    ("offered", lambda s: s.get("offered", s["ops"])),
    ("goodput/s", itemgetter("throughput")),
    ("actions", _scale_report("actions")),
    ("xfer s", lambda s: f"{_scale_report('transfer_s', 0.0)(s):.2f}"),
    ("streamed B", _scale_report("streamed_bytes")),
    ("moves", _scale_report("rebalances")),
    ("before p95/ops", _phase("before")),
    ("during p95/ops", _phase("during")),
    ("after p95/ops", _phase("after")),
    ("stale", _scale_report("stale_reads")),
    ("viol", _checked("violations")),
    *ENERGY_COLUMNS,
)


def _violations_of(kind: str):
    return lambda summary: summary["consistency"][
        "violations_by_kind"].get(kind, 0)


#: Geo-replication table, one row per (CL mode, scenario, region).  It
#: answers the campaign's three questions region by region: did the
#: client keep serving (thr, errors), at what latency (p95/p99 — the
#: WAN round trip shows up here when the CL has to leave the region),
#: and what did correctness cost (unavailable = honest refusals, stale
#: = provable staleness findings, max lag, conv = divergence that
#: survived heal + hint replay — always a bug).
GEO_COLUMNS = (
    ("thr", itemgetter("throughput")),
    ("p95 ms", itemgetter("p95_ms")),
    ("p99 ms", itemgetter("p99_ms")),
    ("errors", itemgetter("errors")),
    ("unavail", lambda s: _errors_of(s, "UnavailableError")),
    ("stale", _violations_of("stale_read")),
    ("max lag s", _at("consistency", "max_staleness_lag_s")),
    ("conv", _violations_of("convergence")),
    ("strong", lambda s: "yes" if s["consistency"]["strong"] else "no"),
    *ENERGY_COLUMNS,
)


def _read_cl_mix(summary: dict) -> str:
    """Compact ``ONE 71% QUORUM 29%`` read-decision mix."""
    by_cl = summary["decisions"]["by_cl"].get("read", {})
    total = sum(by_cl.values())
    if not total:
        return "-"
    return " ".join(f"{cl} {count / total:.0%}"
                    for cl, count in by_cl.items())


def _per_read(kind: str):
    """Violations of one kind as a fraction of the run's reads."""
    def rate(summary: dict) -> str:
        reads = max(1, summary["consistency"]["reads"])
        return f"{_violations_of(kind)(summary) / reads:.4f}"
    return rate


def _policy_counter(*names: str):
    return lambda summary: sum(
        summary["decisions"]["policy_counters"].get(name, 0)
        for name in names)


#: Adaptive-consistency table, one row per (policy, offered load).
#: Each row pairs the latency half of the SLO (achieved read p95
#: against the declared bound) with the staleness half (oracle-checked
#: read-your-writes / stale-read rates and the worst provable lag),
#: plus the controller's read-decision mix and ladder activity.
ADAPTIVE_COLUMNS = (
    ("ops/s", itemgetter("throughput")),
    ("read p95 ms", _at("decisions", "read_p95_ms")),
    ("RYW rate", _per_read("read_your_writes")),
    ("stale rate", _per_read("stale_read")),
    ("max lag s", _at("consistency", "max_staleness_lag_s")),
    ("esc", _policy_counter("escalations")),
    ("decay", _policy_counter("decays", "latency_steps")),
    *ENERGY_COLUMNS,
    ("read CL mix", _read_cl_mix),
)


def adaptive_slo_line(summary: dict) -> str:
    """The declared SLO every run of an adaptive sweep steered by."""
    slo = summary["decisions"]["slo"]
    return (f"SLO: p95 <= {slo['p95_ms']:g} ms, staleness <= "
            f"{slo['staleness_s']:g} s, risk rate <= {slo['risk_rate']:g}")


#: Energy/cost table, one row per (RF, CL round, power mode).  The
#: J/op + $/Mops pair is the headline; the idle/sleep split and wake
#: columns explain *where* a power mode's savings came from and what
#: they cost in wake transitions, and the p95/lag/violation columns
#: price the savings in latency and staleness — power management that
#: broke the consistency guarantee or the tail would not be a win.
ENERGY_CAMPAIGN_COLUMNS = (
    ("ops/s", itemgetter("throughput")),
    ("p95 ms", itemgetter("p95_ms")),
    ("p99 ms", itemgetter("p99_ms")),
    *ENERGY_COLUMNS,
    ("idle J", _at("energy", "idle_j")),
    ("sleep J", _at("energy", "sleep_j")),
    ("wakes", _at("energy", "wakes")),
    ("wake s", _at("energy", "wake_latency_s")),
    ("max lag s", _at("consistency", "max_staleness_lag_s")),
    ("viol", _at("consistency", "violations")),
)


# -- per-leaf detail blocks (--timeline / --digests) --------------------------

def render_failover_timeline(label: str, report: dict) -> str:
    """Per-second ops/latency/error timeline with injection markers."""
    bucket_s = report["bucket_s"]
    markers: dict[int, list[str]] = {}
    timeline = report["timeline"]
    first = timeline[0][0] if timeline else 0.0
    for t, node, action in report["injections"]:
        index = int((t - first) // bucket_s)
        markers.setdefault(index, []).append(f"{action} n{node}")
    lines = [f"{label}  (bucket {bucket_s:g}s)",
             f"{'t(s)':>8}  {'ops':>6}  {'mean ms':>8}  {'errors':>6}"]
    for i, (start, ops, mean_ms, errors) in enumerate(timeline):
        marker = ("  <- " + ", ".join(markers[i])) if i in markers else ""
        lines.append(f"{start:8.1f}  {ops:6d}  {mean_ms:8.2f}  "
                     f"{errors:6d}{marker}")
    return "\n".join(lines)


def render_adaptive_timeline(label: str, decisions: dict) -> str:
    """Per-window CL decision timeline next to the latency timeline.

    ``decisions`` is one summary's ``decisions`` dict.  Each row is one
    monitoring window: its read p95/exposure (from the monitor) beside
    the CL mix of the decisions taken during it (from the decision
    log), so escalations line up visibly with the breaches that caused
    them.
    """
    windows = {w["start_s"]: w for w in decisions["windows"]}
    buckets = {b["start_s"]: b["by_cl"] for b in decisions["timeline"]}
    lines = [f"{label}  (window {decisions['slo']['window_s']:g}s)",
             f"{'t(s)':>7}  {'reads':>5}  {'p95 ms':>7}  {'at-risk':>7}  "
             f"{'exposed':>7}  decisions"]
    for start in sorted(set(windows) | set(buckets)):
        window = windows.get(start)
        mix = " ".join(f"{cl}={count}"
                       for cl, count in buckets.get(start, {}).items()) or "-"
        if window is None:
            lines.append(f"{start:7.1f}  {'-':>5}  {'-':>7}  {'-':>7}  "
                         f"{'-':>7}  {mix}")
            continue
        lines.append(f"{start:7.1f}  {window['reads']:5d}  "
                     f"{window['read_p95_ms']:7.2f}  "
                     f"{window['at_risk_reads']:7d}  "
                     f"{window['exposed_reads']:7d}  {mix}")
    return "\n".join(lines)


def failover_timelines(db: Optional[str], leaves) -> str:
    return "\n\n".join(
        render_failover_timeline(f"{db}/{kind}/cl={mode}",
                                 summary["failover"])
        for (kind, mode), summary in leaves)


def adaptive_timelines(_db: Optional[str], leaves) -> str:
    return "\n\n".join(
        render_adaptive_timeline(f"adaptive/{policy}/target={target:g}",
                                 summary["decisions"])
        for (policy, target), summary in leaves)


def adaptive_digests(_db: Optional[str], leaves) -> str:
    """Each run's decision-log digest: the determinism witness CI diffs
    across ``--jobs`` settings."""
    return "\n".join(
        f"digest {policy} target={target:g} {summary['decisions']['digest']}"
        for (policy, target), summary in leaves)


# -- renderers that are not one-row-per-leaf tables ---------------------------

def render_consistency_panels(sweep: dict, _db: Optional[str] = None) -> str:
    """Figure 3: runtime vs target throughput per consistency level,
    one panel per workload with the modes as columns."""
    blocks = []
    workloads = list(dict.fromkeys(
        name for per_workload in sweep.values() for name in per_workload))
    for workload in workloads:
        cells = [sweep[mode][workload] for mode in sweep]
        rows = [[target, *(cell["series"][i][1] for cell in cells)]
                for i, (target, _) in enumerate(cells[0]["series"])]
        # Whole-ramp energy per mode rides below the throughput series
        # (this table is transposed: modes are columns, so the energy
        # "columns" land as the bottom two rows).
        rows += [[header, *(extract(cell) for cell in cells)]
                 for header, extract in ENERGY_COLUMNS]
        blocks.append(render_table(
            ["target ops/s", *sweep], rows,
            title=f"Fig.3 (cassandra, RF=3): runtime throughput — {workload}"))
    return "\n\n".join(blocks)


def render_check_report(db: str, sweep: dict) -> str:
    """Consistency-oracle verdict table for one ``check`` sweep.

    ``sweep`` is :func:`repro.core.explorer.check_sweep` output:
    violation counts by kind across the seed matrix, the violating
    seeds, and whether the minimal reproducing seed replayed to a
    bit-identical report.
    """
    fault = sweep["fault"] or "healthy"
    repair = " no-repair" if sweep["no_repair"] else ""
    rows = [[kind, count]
            for kind, count in sweep["violations_by_kind"].items()]
    lines = [render_table(
        ["violation kind", "count"], rows,
        title=(f"Consistency check ({db}, cl={sweep['mode']}, {fault}"
               f"{repair}): {len(sweep['seeds'])} seeds"))]
    if sweep["violating_seeds"]:
        lines.append(f"violating seeds: {sweep['violating_seeds']}")
        replay = sweep["replay_verified"]
        verdict = ("replay verified" if replay
                   else "replay MISMATCH" if replay is not None
                   else "replay not attempted")
        lines.append(f"minimal reproducing seed: {sweep['min_repro_seed']}"
                     f" ({verdict})")
        for example in sweep["example_violations"][:5]:
            lines.append(f"  e.g. [{example['kind']}] key={example['key']} "
                         f"at {example['at_s']:.3f}s: {example['detail']}")
    else:
        lines.append("no violations across the matrix")
    if sweep["unexpected_violations"]:
        lines.append(f"UNEXPECTED violations (guarantee broken): "
                     f"{sweep['unexpected_violations']}")
    if sweep.get("joules_per_op") is not None:
        lines.append(f"energy across the matrix: "
                     f"{sweep['joules_per_op']:.3f} J/op, "
                     f"${sweep['usd_per_mops']:.3f}/Mops")
    return "\n".join(lines)
