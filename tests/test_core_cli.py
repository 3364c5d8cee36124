"""Unit tests for the repro-bench CLI and the campaign table behind it."""

import json
import re
from dataclasses import fields, replace
from operator import itemgetter
from pathlib import Path

import pytest

from repro.cluster.config import FaultSpec
from repro.core.cli import build_parser, campaign_args, main
from repro.core.config import (ArrivalConfig, ClientTierConfig,
                               default_micro_config)
from repro.core.report import ENERGY_COLUMNS
from repro.core.runner import CellSpec, RunSpec
from repro.core.sweep import (CAMPAIGNS, GEO_SCENARIOS, SURGE_MODES,
                              _ARRIVAL_SHAPE, Axis, Campaign, Scale,
                              campaign_cells, render_campaign, run_campaign)


class TestParser:
    def test_table1_parses(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_fig_commands_parse(self):
        for name in ("fig1", "fig2"):
            args = build_parser().parse_args([name, "--quick", "--max-rf", "3"])
            assert args.command == name
            assert args.quick is True
            assert list(args.rfs) == [1, 2, 3]
        assert list(build_parser().parse_args(["fig2"]).rfs) \
            == [1, 2, 3, 4, 5, 6]

    def test_fig3_has_no_max_rf(self, capsys):
        # It always ran at RF 3; the flag was accepted and ignored.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--max-rf", "3"])
        assert "--max-rf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, limit", [
        ("fig1 --quick --max-rf 8", "--max-rf 8: choose 1..7"),
        ("fig2 --quick --db cassandra --max-rf 9", "--max-rf 9: choose 1..7"),
        ("fig1 --max-rf 16", "--max-rf 16: choose 1..15"),
        ("fig2 --max-rf 0", "--max-rf 0: choose 1..15"),
        ("fig1 --quick --max-rf -1", "--max-rf -1: choose 1..7"),
        # Every flag whose legal range its type does not know fails alike.
        ("check --quick --seeds 0 --strict", "--seeds 0: choose 1 or more"),
        ("check --seeds -2", "--seeds -2: choose 1 or more"),
        ("check --quick --jobs -1", "--jobs -1: choose 0"),
        ("fig2 --quick --jobs -3", "--jobs -3: choose 0"),
    ], ids=["fig1_quick_over", "fig2_quick_over", "fig1_full_over",
            "fig2_zero", "fig1_negative", "check_seeds_zero",
            "check_seeds_negative", "check_jobs_negative",
            "fig2_jobs_negative"])
    def test_max_rf_outside_the_servers_is_a_usage_error(
            self, argv, limit, capsys, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr("repro.core.cli.run_campaign", no_cell)
        monkeypatch.setattr("repro.core.cli.check_sweep", no_cell)
        with pytest.raises(SystemExit) as exit_:
            main(argv.split())
        out, err = capsys.readouterr()
        assert exit_.value.code == 2
        assert out == ""
        assert err.count("\n") == 1 and limit in err, err

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_a_check_without_seeds_is_refused(self, seeds):
        with pytest.raises(ValueError, match="at least one seed"):
            campaign_cells("check", "cassandra", seeds=seeds)

    def test_db_filter(self):
        args = build_parser().parse_args(["fig1", "--db", "hbase"])
        assert args.dbs == ["hbase"]

    def test_jobs_and_cache_flags(self):
        args = build_parser().parse_args(["fig2", "--jobs", "4",
                                          "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True

    def test_jobs_default_serial_cache_on(self):
        args = build_parser().parse_args(["fig3", "--quick"])
        assert args.jobs == 1
        assert args.no_cache is False

    def test_invalid_db_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--db", "mongodb"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detail_and_gate_flags_parse(self):
        args = build_parser().parse_args(
            ["failover", "--quick", "--db", "cassandra",
             "--fault", "crash", "--fault", "slow_disk",
             "--timeline", "--jobs", "4"])
        assert args.dbs == ["cassandra"]
        assert args.faults == ["crash", "slow_disk"]
        assert args.timeline is True and args.jobs == 4
        args = build_parser().parse_args(
            ["adaptive", "--timeline", "--digests", "--report", "a.json"])
        assert args.timeline and args.digests and args.report == "a.json"
        assert build_parser().parse_args(["surge", "--strict"]).strict

    @pytest.mark.parametrize("name", ["failover", "check"])
    def test_single_rack_campaigns_offer_node_faults_only(self, name,
                                                          capsys):
        """A DC-level fault can never run on a single-rack cluster: it
        is an argparse error naming the legal kinds, not a traceback
        from ``FaultSpec`` five frames down."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--fault", "dc_partition"])
        err = capsys.readouterr().err
        assert "invalid choice: 'dc_partition'" in err
        assert "crash" in err and "slow_disk" in err

    def test_geo_still_accepts_dc_scenarios(self):
        args = build_parser().parse_args(
            ["geo", "--scenario", "dc_partition", "--scenario",
             "wan_degrade"])
        assert args.scenarios == ["dc_partition", "wan_degrade"]


#: Every flag of every subcommand that restricts its values.
CHOICE_FLAGS = [(campaign.name, arg) for campaign in CAMPAIGNS.values()
                for arg in campaign_args(campaign)
                if "choices" in arg.kwargs]
#: Every campaign that runs cells (all but table1).
RUNNABLE = [campaign for campaign in CAMPAIGNS.values()
            if campaign.cells is not None]
#: Every axis of every campaign the generic path runs.
AXES = [(campaign, axis) for campaign in RUNNABLE for axis in campaign.axes]


def _cells(campaign, scale=None, **axes):
    """``campaign``'s cells on its first database at ``scale`` (default:
    its quick one), the extras (``--max-rf``, ``--seeds``) at their CLI
    defaults."""
    return campaign_cells(
        campaign, campaign.dbs[0], scale or campaign.quick, **axes,
        **{arg.dest: arg.kwargs["default"] for arg in campaign.extra
           if "default" in arg.kwargs})


class TestCampaignTable:
    """One parse/reject/default/validate contract for every campaign,
    read off the table — a new entry is covered without a new test."""

    def test_subcommands(self):
        assert list(CAMPAIGNS) == [
            "table1", "fig1", "fig2", "fig3", "ablation", "failover", "tail",
            "check", "adaptive", "geo", "surge", "scale", "energy"]
        assert campaign_args(CAMPAIGNS["table1"]) == []  # nothing to run
        assert [arg.flags[0] for arg in campaign_args(CAMPAIGNS["ablation"])
                ] == ["--quick", "--jobs", "--no-cache", "--db"]

    @pytest.mark.parametrize(
        "name,arg", CHOICE_FLAGS,
        ids=[f"{name}{arg.flags[0]}" for name, arg in CHOICE_FLAGS])
    def test_every_legal_value_parses_unknown_rejected(self, name, arg):
        parser = build_parser()
        for value in arg.kwargs["choices"]:
            parsed = getattr(parser.parse_args([name, arg.flags[0], value]),
                             arg.dest)
            assert parsed in (value, [value])
        with pytest.raises(SystemExit):
            parser.parse_args([name, arg.flags[0], "meteor"])

    @pytest.mark.parametrize(
        "campaign,axis", AXES,
        ids=[f"{campaign.name}.{axis.name}" for campaign, axis in AXES])
    def test_axis_defaults_and_validation(self, campaign, axis):
        # The flag (if any) is repeatable and defaults to "not given"...
        if axis.flag:
            args = build_parser().parse_args([campaign.name])
            assert getattr(args, axis.name) is None
        # ...which the one generic path expands to the declared range...
        declared = axis.default or axis.values
        assert _cells(campaign) == _cells(campaign, **{axis.name: declared})
        narrowed = _cells(campaign, **{axis.name: declared[:1]})
        assert 0 < len(narrowed) <= len(_cells(campaign))
        # ...and a bad library call gets the one ValueError, naming the
        # same legal values the parser offers.
        with pytest.raises(ValueError) as excinfo:
            _cells(campaign, **{axis.name: ("meteor",)})
        assert "'meteor'" in str(excinfo.value)
        assert all(str(value) in str(excinfo.value)
                   for value in axis.values)

    def test_unknown_campaign_and_db_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            run_campaign("fig9")
        with pytest.raises(ValueError, match="choose from"):
            run_campaign("geo", "hbase")
        with pytest.raises(ValueError, match="choose from"):
            run_campaign("tail")  # two databases: name one
        with pytest.raises(ValueError, match="no cells"):
            run_campaign("table1")

    def test_every_campaign_is_documented(self):
        """README's subcommand table has one row per campaign — its help
        line verbatim — linking to a heading EXPERIMENTS.md really has."""
        root = Path(__file__).resolve().parents[1]
        headings = {
            re.sub(r"[^\w\- ]", "", line[3:].lower()).replace(" ", "-")
            for line in (root / "EXPERIMENTS.md").read_text().splitlines()
            if line.startswith("## ")}
        rows = re.findall(
            r"^\| `(\w+)` \| (.+?) \| \[[^\]]+\]\(EXPERIMENTS\.md#([^)]+)\) \|$",
            (root / "README.md").read_text(), re.MULTILINE)
        assert [(name, text) for name, text, _ in rows] \
            == [(c.name, c.help) for c in CAMPAIGNS.values()]
        assert {anchor for _, _, anchor in rows} <= headings

    def test_module_map_lists_every_package_and_core_module(self):
        """DESIGN.md §3 names each package under ``src/repro`` and each
        module of ``core/`` (the map went stale for five PRs once)."""
        root = Path(__file__).resolve().parents[1]
        design = (root / "DESIGN.md").read_text()
        module_map = design[design.index("## 3. System inventory"):
                            design.index("### Campaign table")]
        package = root / "src" / "repro"
        expected = [f"{path.name}/" for path in package.iterdir()
                    if (path / "__init__.py").exists()]
        expected += [path.name for path in (package / "core").glob("*.py")
                     if path.name != "__init__.py"]
        assert len(expected) > 15
        assert [name for name in expected
                if not re.search(rf"^\s+{re.escape(name)}\s", module_map,
                                 re.MULTILINE)] == []

    def test_throwaway_campaign_needs_no_other_code(self, tmp_path, capsys):
        """A campaign literal defined right here runs, renders, parses,
        gates and reports through the generic path — which therefore
        has no per-name branches."""
        def cells(db, scale, ops):
            config = replace(default_micro_config(db, "read", seed=5),
                             record_count=scale.record_count,
                             operation_count=40,
                             n_threads=2, n_nodes=4, settle_s=0.5)
            return [CellSpec(key=op, label=f"toy/{db}/{op}", config=config,
                             runs=(RunSpec(workload=op, check=True),))
                    for op in ops]

        toy = Campaign(
            "toy", "a throwaway campaign", full=Scale(record_count=300),
            quick=Scale(record_count=200), dbs=("cassandra",),
            axes=(Axis("ops", ("read", "update"), "--op", "op test(s)",
                       default=("read",)),),
            cells=cells, keys=("op",),
            columns=(("ops", itemgetter("ops")), *ENERGY_COLUMNS),
            title="Toy ({db})", gate=True, report=True)

        sweep = run_campaign(toy)
        assert list(sweep) == ["read"] and sweep["read"]["ops"] > 0
        lines = render_campaign(toy, sweep).splitlines()
        assert lines[0] == "Toy (cassandra)"
        assert lines[1].split() == ["op", "ops", "J/op", "$/Mops"]
        assert len(lines) == 4
        with pytest.raises(ValueError, match=r"\('read', 'update'\)"):
            run_campaign(toy, ops=("scan",))

        report = tmp_path / "toy.json"
        args = build_parser([toy]).parse_args(
            ["toy", "--quick", "--op", "update", "--no-cache", "--strict",
             "--report", str(report)])
        assert args.func(args) == 0
        captured = capsys.readouterr()
        assert "Toy (cassandra)" in captured.out
        assert "[1/1] toy/cassandra/update" in captured.err
        assert list(json.loads(report.read_text())) == ["update"]


class TestOneScale:
    """Every campaign speaks one sizing vocabulary: a :class:`Scale`
    whose ingredient fields are the config dataclasses the cells carry,
    narrowed per mode / scenario by the axis tables."""

    def test_every_campaign_runs_at_a_scale(self):
        assert len(fields(Scale)) <= 22
        for campaign in RUNNABLE:
            assert isinstance(campaign.full, Scale), campaign.name
            assert isinstance(campaign.quick, Scale), campaign.name

    @pytest.mark.parametrize("campaign", RUNNABLE,
                             ids=[campaign.name for campaign in RUNNABLE])
    def test_sizing_override_reaches_every_cell(self, campaign):
        # A cell loads the scale's population or one derived from it
        # (the ablation's WAL cells load a quarter): double the one and
        # every cell's doubles.
        full = campaign.full
        cells = _cells(campaign, full)
        doubled = _cells(campaign, replace(full,
                                           record_count=2 * full.record_count))
        assert cells
        assert [cell.config.record_count for cell in doubled] \
            == [2 * cell.config.record_count for cell in cells]

    def test_surge_mode_keeps_only_its_fields_of_the_client_tier(self):
        surge = CAMPAIGNS["surge"]
        quick = surge.quick
        changed = replace(quick, clienttier=replace(
            quick.clienttier, breaker_failure_rate=0.75))
        rates = {cell.key[1]: cell.config.clienttier.breaker_failure_rate
                 for cell in _cells(surge, changed, scenarios=("steady",))}
        assert rates == {
            "undefended": ClientTierConfig().breaker_failure_rate,
            "breaker": 0.75, "breaker+budget+leveling": 0.75, "full": 0.75}

    def test_arrival_shape_a_process_never_reads_stays_at_class_default(
            self):
        """The masking rule the cell pins rely on: a flash-crowd cell's
        identity does not move with the scale's diurnal knobs."""
        elastic = CAMPAIGNS["scale"]
        quick = elastic.quick
        changed = replace(quick, arrivals=replace(quick.arrivals,
                                                  peak_factor=9.0))
        peaks = {cell.key[0]: cell.config.arrivals.peak_factor
                 for cell in _cells(elastic, changed, modes=("static",))}
        assert peaks == {"diurnal": 9.0,
                         "flash_crowd": ArrivalConfig().peak_factor}

    @pytest.mark.parametrize("table,config_class", [
        (SURGE_MODES, ClientTierConfig), (GEO_SCENARIOS, FaultSpec),
        (_ARRIVAL_SHAPE, ArrivalConfig)],
        ids=["SURGE_MODES", "GEO_SCENARIOS", "_ARRIVAL_SHAPE"])
    def test_axis_tables_name_real_fields(self, table, config_class):
        legal = {field.name for field in fields(config_class)}
        for value, kept in table.items():
            assert set(kept or ()) <= legal, value


class TestCommands:
    def test_table1_prints_workloads(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "read_mostly" in out
        assert "scan_short_ranges" in out
        assert "Zipfian" in out or "zipfian" in out

    def test_fig1_end_to_end_jobs_and_cache(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        argv = ["fig1", "--quick", "--max-rf", "1", "--db", "hbase",
                "--jobs", "2"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Fig.1 (hbase)" in first.out
        assert "[1/1] fig1/hbase/rf=1" in first.err
        # Second invocation reuses the cell cache and prints the same
        # table (progress marks the cell as cached).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_failover_end_to_end_cached_identical(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        argv = ["failover", "--quick", "--db", "hbase", "--timeline"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Failover campaign (hbase)" in first.out
        assert "crash n0" in first.out      # injection marker
        assert "restart n0" in first.out
        assert "detect s" in first.out      # availability columns
        # The cached rerun is bit-identical (the acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err


class TestAdaptiveCommand:
    def test_adaptive_end_to_end_jobs_and_cache_identical(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        cells = ["--policy", "static-one", "--policy", "stepwise",
                 "--timeline", "--digests"]
        argv = ["adaptive", "--quick", "--jobs", "2", *cells]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Adaptive consistency (cassandra, RF=3)" in first.out
        assert "SLO: p95 <=" in first.out
        assert "digest stepwise" in first.out
        assert "decisions" in first.out  # timeline header
        # Cached rerun is bit-identical (acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        # A serial run against the same cache matches too: jobs only
        # changes scheduling, never decisions — the digest lines embed
        # the decision-log identity.
        assert main(["adaptive", "--quick", "--jobs", "1", *cells]) == 0
        serial = capsys.readouterr()
        assert serial.out == first.out

    def test_adaptive_report_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "cache"))
        report = tmp_path / "adaptive.json"
        argv = ["adaptive", "--quick", "--policy", "static-one",
                "--report", str(report)]
        assert main(argv) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        summary = payload["static-one"]["1200.0"]
        assert "decisions" in summary and "consistency" in summary


class TestTailCommand:
    def test_tail_end_to_end_jobs_and_cache_identical(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path))
        cells = ["--db", "cassandra", "--scenario", "overload",
                 "--mode", "none", "--mode", "deadline"]
        argv = ["tail", "--quick", "--jobs", "2", *cells]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Tail-latency defenses (cassandra)" in first.out
        assert "shed" in first.out
        # Cached rerun is bit-identical (acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        # So is a serial run against the same cache: jobs only changes
        # scheduling, never results.
        assert main(["tail", "--quick", "--jobs", "1", *cells]) == 0
        serial = capsys.readouterr()
        assert serial.out == first.out


class TestSurgeCommand:
    def test_surge_end_to_end_jobs_and_cache_identical(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CELL_CACHE", str(tmp_path / "cache"))
        report = tmp_path / "surge.json"
        cells = ["--db", "cassandra", "--scenario", "steady",
                 "--mode", "undefended", "--mode", "full", "--strict",
                 "--report", str(report)]
        argv = ["surge", "--quick", "--jobs", "2", *cells]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Flash-crowd survival (cassandra)" in first.out
        assert "goodput/s" in first.out
        # Cached rerun is bit-identical (acceptance criterion).
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "cached" in second.err
        # So is a serial run against the same cache: jobs only changes
        # scheduling, never results.
        assert main(["surge", "--quick", "--jobs", "1", *cells]) == 0
        serial = capsys.readouterr()
        assert serial.out == first.out
        # The JSON report carries the open-loop accounting.
        payload = json.loads(report.read_text())
        summary = payload["cassandra"]["steady"]["full"]
        assert summary["offered"] > 0
        assert "clienttier" in summary and "consistency" in summary
