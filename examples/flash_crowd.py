#!/usr/bin/env python3
"""Flash-crowd survival: watch a retry storm form, then defuse it.

One open-loop cell per defense stack, all offered the *same* arrival
schedule — a steady Poisson base rate that multiplies 10x for a few
seconds (the flash crowd).  The undefended client is the classic
anti-pattern: one in-flight operation per arrival, uncapped retries.
The full stack wraps the same binding in the resilient client tier —
circuit breaker, Finagle-style retry budget, per-tenant rate limiter,
queue-based load leveling, and a TTL'd cache-aside front — composed
with the server-side tail defenses (propagated deadlines, bounded
handler queues).

Because arrivals are open-loop, offered load is an *input*: collapse
reads as goodput falling away from the offered rate, and the refusal
columns say where the missing requests went.  Latency is measured from
intended arrival (coordinated omission fixed), so queueing delay is
charged to the stack that caused it.

The full campaign (db x scenario x stack, parallel, cached) is
``repro-bench surge``; this example is the two-stack close-up.

Run:  python examples/flash_crowd.py
"""

from dataclasses import replace

from repro.core.report import render_table
from repro.core.sweep import CAMPAIGNS, run_campaign

FULL = CAMPAIGNS["surge"].full

#: Small enough to finish in about a minute, large enough that the
#: spike overwhelms the cluster's disk-bound capacity.
SCALE = replace(
    FULL, record_count=2_000, n_nodes=6,
    arrivals=replace(FULL.arrivals, rate=400.0, max_arrivals=8_000,
                     n_users=50_000, n_tenants=4, spike_at_s=2.0,
                     spike_factor=10.0, spike_duration_s=3.0),
    # Per-tenant rate limit: six times the fair steady share (400/s
    # over 4 tenants).
    clienttier=replace(FULL.clienttier, leveling_workers=32,
                       leveling_queue=128, rate_limit_per_tenant=600.0,
                       rate_limit_burst=600.0))


def main() -> None:
    arrivals, client = SCALE.arrivals, SCALE.clienttier
    print(f"arrivals: poisson {arrivals.rate:g}/s, x{arrivals.spike_factor:g} "
          f"spike at t={arrivals.spike_at_s:g}s for "
          f"{arrivals.spike_duration_s:g}s; "
          f"op timeout {client.op_timeout_s * 1e3:g} ms, "
          f"{client.retries} retries")
    print()
    sweep = run_campaign("surge", "cassandra", SCALE,
                         modes=("undefended", "full"),
                         scenarios=("flash_crowd",))
    rows = []
    for mode, summary in sweep["flash_crowd"].items():
        tier = summary["clienttier"]
        by_type = summary["errors_by_type"]
        cache = tier.get("cache")
        rows.append([
            mode,
            f"{summary['offered_per_s']:.0f}",
            f"{summary['goodput']:.0f}",
            f"{summary['p99_ms']:.0f}",
            f"{summary['p999_ms']:.0f}",
            str(tier["retry"]["retried"]),
            str(by_type.get("LoadShed", 0)),
            str(by_type.get("BreakerOpen", 0)),
            f"{cache['hit_rate']:.2f}" if cache else "-",
        ])
    print(render_table(
        ["stack", "offered/s", "goodput/s", "p99 ms", "p99.9 ms",
         "retried", "shed", "breaker", "cache hr"],
        rows,
        title="Flash crowd: naive client vs full defense stack"))
    print()
    undefended = sweep["flash_crowd"]["undefended"]
    full = sweep["flash_crowd"]["full"]
    amplification = (undefended["clienttier"]["retry"]["retried"]
                     / max(1, undefended["offered"]))
    print(f"undefended: retries re-offered {amplification:.1f}x the "
          f"arrival count — the retry storm that turns a transient "
          f"spike into a metastable overload")
    print(f"full stack: {full['goodput'] / undefended['goodput']:.1f}x "
          f"the undefended goodput through the same spike; max read "
          f"staleness {full['consistency']['max_staleness_lag_s']:.2f}s "
          f"(cache TTL {SCALE.clienttier.cache_ttl_s:g}s)")


if __name__ == "__main__":
    main()
