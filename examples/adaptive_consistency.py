#!/usr/bin/env python3
"""Adaptive consistency: watch a policy walk the CL ladder mid-run.

One calibrated cell per policy (read-mostly, RF = 3, a replica crash
early in the run, hinted handoff throttled), driven through the same
``ExperimentConfig``/``ExperimentSession`` path as every sweep.  For the
two adaptive policies the per-window CL decision timeline is printed
next to the latency timeline, so you can see the controller escalate
when the crash makes weak reads risky and step back down once the
latency half of the SLO takes over.

The full campaign (policy x offered-load ramp, parallel, cached) is
``repro-bench adaptive``; this example is the single-cell close-up.

Run:  python examples/adaptive_consistency.py
"""

from repro.core import ExperimentSession
from repro.core.report import render_adaptive_timeline, render_table
from repro.core.sweep import ADAPTIVE_POLICIES, CAMPAIGNS, campaign_cells

SCALE = CAMPAIGNS["adaptive"].quick


def run_policy(policy: str):
    cell = campaign_cells("adaptive", scale=SCALE, policies=(policy,))[0]
    session = ExperimentSession(cell.config)
    session.load()
    run = cell.runs[0]
    return session.run_cell(
        operation_count=run.operation_count,
        target_throughput=run.target_throughput,
        inject_faults=True, check_consistency=True, adaptive=policy)


def main() -> None:
    slo, fault = SCALE.slo, SCALE.fault
    print(f"SLO: p95 <= {slo.p95_ms:g} ms, staleness <= "
          f"{slo.staleness_s:g} s, risk rate <= {slo.risk_rate:g}; "
          f"crash at {fault.at_s:g}s for {fault.duration_s:g}s")
    print()
    rows = []
    timelines = []
    for policy in ADAPTIVE_POLICIES:
        result = run_policy(policy)
        decisions = result.reports["decisions"]
        consistency = result.reports["consistency"]
        reads = max(1, consistency["reads"])
        by_kind = consistency["violations_by_kind"]
        rows.append([
            policy,
            f"{decisions['read_p95_ms']:.1f}",
            f"{by_kind['read_your_writes'] / reads:.4f}",
            f"{consistency['max_staleness_lag_s']:.2f}",
            str(decisions["policy_counters"].get("escalations", 0)),
        ])
        if policy in ("stepwise", "staleness-bound"):
            timelines.append((policy, decisions))
    print(render_table(
        ["policy", "read p95 ms", "RYW rate", "max lag s", "escalations"],
        rows,
        title="Per-request CL control under a latency/staleness SLO"))
    for policy, decisions in timelines:
        print()
        print(render_adaptive_timeline(policy, decisions))


if __name__ == "__main__":
    main()
