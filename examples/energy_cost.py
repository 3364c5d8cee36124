#!/usr/bin/env python3
"""Energy & cost: the power bill of a consistency level, step by step.

Three Cassandra RF = 3 cells from the energy campaign's grid, driven
through the same ``ExperimentConfig``/``ExperimentSession`` path as
every sweep: the static QUORUM baseline (always-on), blind
race-to-sleep at CL ONE (the cautionary cell — under RF 3 fan-out the
parked fleet keeps paying wake latency), and the energy-aware adaptive
policy (staleness-bound CL routing plus window-driven park/unpark).
For each cell the full energy decomposition (idle/CPU/disk/NIC/sleep
joules), the priced bill ($/kWh + instance-hours), and the resulting
J/op and $/Mops are printed side by side; for the adaptive cell the
policy's park/unpark counters show how selectively it parked.

The full campaign (db x CL x RF x power mode, parallel, cached) is
``repro-bench energy``; this example is the single-cell close-up.

Run:  python examples/energy_cost.py
"""

from repro.core.experiment import ExperimentSession
from repro.core.report import render_table
from repro.core.sweep import CAMPAIGNS, campaign_cells

#: The three RF = 3 cells that tell the story, by (rf, cl, power) key.
SHOWCASE = (
    (3, "QUORUM", "always_on"),
    (3, "ONE", "race_to_sleep"),
    (3, "adaptive", "energy_aware"),
)

SCALE = CAMPAIGNS["energy"].quick


def run_cell(cell):
    session = ExperimentSession(cell.config)
    session.load()
    run = cell.runs[0]
    return session.run_cell(
        operation_count=run.operation_count,
        target_throughput=run.target_throughput,
        check_consistency=True, adaptive=run.adaptive)


def main() -> None:
    cells = {cell.key: cell
             for cell in campaign_cells("energy", "cassandra", SCALE)}
    print(f"cassandra, RF = 3, {cells[SHOWCASE[0]].runs[0].workload} at "
          f"{SCALE.targets[0]:g} ops/s offered for {SCALE.duration_s:g}s; "
          f"staleness budget {SCALE.slo.staleness_s:g}s")
    print()
    rows = []
    parked = None
    for key in SHOWCASE:
        result = run_cell(cells[key])
        reports = result.reports
        energy = reports["energy"]
        rows.append([
            f"{key[1]}/{key[2]}",
            f"{result.throughput:.0f}",
            f"{energy['idle_j']:.0f}",
            f"{energy['cpu_j'] + energy['disk_j'] + energy['nic_j']:.0f}",
            f"{energy['sleep_j']:.0f}",
            f"{energy['wakes']}",
            f"{reports['joules_per_op']:.3f}",
            f"{reports['usd_per_mops']:.3f}",
        ])
        if key[2] == "energy_aware":
            parked = reports["decisions"]["policy_counters"]
    print(render_table(
        ["cell", "ops/s", "idle J", "dynamic J", "sleep J", "wakes",
         "J/op", "$/Mops"],
        rows,
        title="Energy decomposition and bill per power-management cell"))
    print()
    print("The QUORUM baseline burns the most J/op not through dynamic "
          "work but by\ndragging utilization down: idle watts dominate "
          "the fleet's bill.  Blind\nrace-to-sleep backfires at RF 3 "
          "(every write wakes parked replicas), while\nthe energy-aware "
          "policy parked "
          f"{parked['parks']} time(s) and unparked "
          f"{parked['unparks']} time(s) --\nonly across windows its "
          "SLO monitor called clean -- and undercuts the\nbaseline on "
          "both metrics without leaving the staleness budget.")


if __name__ == "__main__":
    main()
