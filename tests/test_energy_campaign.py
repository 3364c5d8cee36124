"""The energy/cost campaign: paper shapes, policy wins, and rendering.

One quick-scale sweep per store is computed once per session (the
cells are deterministic, so every assertion here reads the same two
dicts) and the paper's energy story is checked end to end: stricter
consistency and higher replication burn measurably more joules per
operation, race-to-sleep trades wake latency for joules, and the
energy-aware policy beats the static QUORUM baseline on $/Mops without
leaving the declared staleness budget.
"""

import json

import pytest

from repro.adaptive.monitor import STALENESS_S
from repro.consistency.oracle import unexpected_violations
from repro.core.sweep import (_ENERGY_RFS, CAMPAIGNS, ENERGY_MODES,
                              campaign_cells, render_campaign, run_campaign)

QUICK = CAMPAIGNS["energy"].quick


@pytest.fixture(scope="module")
def sweeps():
    return {db: run_campaign("energy", db, QUICK)
            for db in ("cassandra", "hbase")}


class TestEnergyCells:
    def test_grid_covers_modes(self):
        keys = {cell.key for cell in campaign_cells(
            "energy", "cassandra", QUICK)}
        for rf in _ENERGY_RFS:
            for cl in ("ONE", "QUORUM"):
                assert (rf, cl, "always_on") in keys
                assert (rf, cl, "race_to_sleep") in keys
            assert (rf, "adaptive", "energy_aware") in keys
        assert keys == {(rf, cl, power) for rf in _ENERGY_RFS
                        for cl, power in ENERGY_MODES["cassandra"]}

    def test_hbase_has_no_cl_axis(self):
        assert ENERGY_MODES["hbase"] == (("n/a", "always_on"),
                                         ("n/a", "race_to_sleep"))


class TestPaperShapes:
    def test_every_cell_is_oracle_clean(self, sweeps):
        for db, sweep in sweeps.items():
            for rf in sweep:
                for cl in sweep[rf]:
                    for power, summary in sweep[rf][cl].items():
                        assert unexpected_violations(
                            summary["consistency"]) == 0, (db, rf, cl, power)

    def test_joules_rise_with_cl_strictness(self, sweeps):
        """Cassandra: QUORUM rounds touch more replicas per read and
        wait longer — strictly more joules per op than ONE at RF 3."""
        by_cl = sweeps["cassandra"][3]
        one = by_cl["ONE"]["always_on"]["joules_per_op"]
        quorum = by_cl["QUORUM"]["always_on"]["joules_per_op"]
        assert one < quorum

    def test_joules_rise_with_replication(self, sweeps):
        """Both stores: more replicas means more fan-out work per
        write, so RF 3 burns more joules per op than RF 1."""
        for db, cl in (("cassandra", "ONE"), ("hbase", "n/a")):
            sweep = sweeps[db]
            low = sweep[1][cl]["always_on"]["joules_per_op"]
            high = sweep[3][cl]["always_on"]["joules_per_op"]
            assert low < high, db

    def test_race_to_sleep_saves_joules_but_pays_wakes(self, sweeps):
        # Where traffic leaves real idle gaps (RF 1, and HBase's
        # single-owner reads) blind parking wins joules outright.
        for db, cl, rf in (("cassandra", "ONE", 1), ("hbase", "n/a", 1),
                           ("hbase", "n/a", 3)):
            on = sweeps[db][rf][cl]["always_on"]
            sleep = sweeps[db][rf][cl]["race_to_sleep"]
            assert sleep["joules_per_op"] < on["joules_per_op"]
            assert sleep["energy"]["wakes"] > 0
            assert sleep["energy"]["sleep_j"] > 0
            assert on["energy"]["wakes"] == 0
            assert on["energy"]["sleep_j"] == 0.0

    def test_blind_parking_backfires_under_fanout(self, sweeps):
        """Cassandra at RF 3: every write touches three replicas, so
        parked nodes keep paying wake latency, the run stretches, and
        race-to-sleep burns MORE joules per op than always-on — the
        cautionary half of the campaign, and exactly the regime where
        the window-driven energy-aware policy still finds savings."""
        by_cl = sweeps["cassandra"][3]
        on = by_cl["ONE"]["always_on"]
        sleep = by_cl["ONE"]["race_to_sleep"]
        aware = by_cl["adaptive"]["energy_aware"]
        assert sleep["joules_per_op"] > on["joules_per_op"]
        assert sleep["energy"]["wakes"] > aware["energy"]["wakes"]
        # The policy parks far more selectively, and it still undercuts
        # race-to-sleep at the consistency level it actually guarantees.
        quorum_sleep = by_cl["QUORUM"]["race_to_sleep"]
        assert aware["joules_per_op"] < quorum_sleep["joules_per_op"]

    def test_energy_aware_beats_static_quorum_on_cost(self, sweeps):
        """The acceptance headline: the adaptive policy undercuts the
        static QUORUM baseline on $/Mops (and joules/op) while the
        oracle confirms it stayed within the declared staleness bound."""
        quorum = sweeps["cassandra"][3]["QUORUM"]["always_on"]
        aware = sweeps["cassandra"][3]["adaptive"]["energy_aware"]
        assert aware["usd_per_mops"] < quorum["usd_per_mops"]
        assert aware["joules_per_op"] < quorum["joules_per_op"]
        lag = aware["consistency"]["max_staleness_lag_s"]
        assert lag <= STALENESS_S
        assert unexpected_violations(aware["consistency"]) == 0

    def test_energy_aware_actually_parked(self, sweeps):
        aware = sweeps["cassandra"][3]["adaptive"]["energy_aware"]
        counters = aware["decisions"]["policy_counters"]
        assert counters["parks"] > 0
        assert aware["energy"]["sleep_j"] > 0


class TestEnergyReportShape:
    def test_summary_carries_energy_and_cost(self, sweeps):
        summary = sweeps["hbase"][3]["n/a"]["always_on"]
        energy, cost = summary["energy"], summary["cost"]
        assert energy["total_j"] == pytest.approx(
            energy["idle_j"] + energy["cpu_j"] + energy["disk_j"]
            + energy["nic_j"] + energy["sleep_j"])
        assert cost["total_usd"] == pytest.approx(
            cost["energy_usd"] + cost["instance_usd"])
        assert summary["joules_per_op"] > 0
        assert summary["usd_per_mops"] > 0

    def test_sweep_is_json_safe(self, sweeps):
        json.dumps(sweeps)

    def test_render_energy_sweep(self, sweeps):
        text = render_campaign("energy", sweeps["cassandra"], "cassandra")
        assert "J/op" in text and "$/Mops" in text
        assert "race_to_sleep" in text
        assert "energy_aware" in text
        # One row per (rf, cl, power) plus title/header/rule.
        cells = sum(len(by_power) for by_cl in sweeps["cassandra"].values()
                    for by_power in by_cl.values())
        assert len(text.splitlines()) == cells + 3
