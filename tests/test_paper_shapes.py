"""Small-scale versions of the paper's findings F1–F6.

These are the repository's contract with the paper: each test runs a
miniature version of one experiment and asserts the qualitative shape.
The published tables come from ``repro-bench <campaign>`` at its full
scale (EXPERIMENTS.md); here the populations are small enough for the
unit-test budget, so tolerances are generous.
"""

from dataclasses import replace

import pytest

from repro.cassandra.consistency import ConsistencyLevel
from repro.cluster.elasticity import P95_BREACH_MS
from repro.core.sweep import CAMPAIGNS, campaign_cells, run_campaign

SCALE = replace(CAMPAIGNS["fig1"].full, record_count=6_000,
                operation_count=1_200, n_threads=24, n_nodes=10,
                targets=(3_000.0, None), seed=99)

#: The stress shapes need the population/memory ratio of the real
#: experiment (see ``scaled_stress_storage``), which the sweeps derive
#: automatically; a slightly larger population keeps it stable.
STRESS_SCALE = replace(SCALE, record_count=8_000, operation_count=1_500,
                       n_threads=32, n_nodes=12)

QUICK_ABLATION = CAMPAIGNS["ablation"].quick
QUICK_FAILOVER = CAMPAIGNS["failover"].quick
QUICK_TAIL = CAMPAIGNS["tail"].quick
QUICK_SURGE = CAMPAIGNS["surge"].quick
QUICK_ELASTIC = CAMPAIGNS["scale"].quick


@pytest.fixture(scope="module")
def micro():
    return {db: run_campaign("fig1", db, SCALE, rfs=(1, 5))
            for db in ("hbase", "cassandra")}


class TestFig1Shapes:
    def test_f1_hbase_reads_flat(self, micro):
        sweep = micro["hbase"]
        assert sweep[5]["read"]["mean_ms"] < sweep[1]["read"]["mean_ms"] * 1.8
        assert sweep[5]["scan"]["mean_ms"] < sweep[1]["scan"]["mean_ms"] * 1.8

    def test_f2_hbase_writes_no_dramatic_change(self, micro):
        sweep = micro["hbase"]
        # Five extra in-memory pipeline hops stay under a millisecond.
        assert (sweep[5]["insert"]["mean_ms"]
                - sweep[1]["insert"]["mean_ms"]) < 1.0

    def test_f3_cassandra_writes_flat(self, micro):
        sweep = micro["cassandra"]
        assert sweep[5]["update"]["mean_ms"] < \
            sweep[1]["update"]["mean_ms"] * 1.6
        assert sweep[5]["insert"]["mean_ms"] < \
            sweep[1]["insert"]["mean_ms"] * 1.6

    def test_f4_cassandra_reads_climb(self, micro):
        sweep = micro["cassandra"]
        assert sweep[5]["read"]["mean_ms"] > \
            sweep[1]["read"]["mean_ms"] * 1.5

    def test_f4_contrast_between_systems(self, micro):
        hbase_growth = (micro["hbase"][5]["read"]["mean_ms"]
                        / micro["hbase"][1]["read"]["mean_ms"])
        cassandra_growth = (micro["cassandra"][5]["read"]["mean_ms"]
                            / micro["cassandra"][1]["read"]["mean_ms"])
        assert cassandra_growth > hbase_growth


class TestAblationShapes:
    """F2 and F4 each rest on one mechanism; switch it and the shape goes."""

    def test_f2_flatness_requires_memory_acks(self):
        sweep = run_campaign("ablation", "hbase", QUICK_ABLATION)
        flush_growth = (sweep[6]["wal=hflush"]["mean_ms"]
                        - sweep[1]["wal=hflush"]["mean_ms"])
        sync_growth = (sweep[6]["wal=hsync"]["mean_ms"]
                       - sweep[1]["wal=hsync"]["mean_ms"])
        # Disk-acked pipelines pay far more per extra replica...
        assert sync_growth > 2 * flush_growth
        # ...and hsync is categorically slower at any RF.
        assert sweep[1]["wal=hsync"]["mean_ms"] > \
            1.4 * sweep[1]["wal=hflush"]["mean_ms"]

    def test_f4_read_latency_grows_with_the_repair_chance(self):
        by_chance = run_campaign("ablation", "cassandra", QUICK_ABLATION)[5]
        off, default, always = (
            by_chance[f"read_repair_chance={chance}"]["mean_ms"]
            for chance in (0.0, 0.1, 1.0))
        assert default > 1.02 * off
        assert always > default


class TestFig2Shapes:
    @pytest.fixture(scope="class")
    def stress(self):
        workloads = ("read_mostly", "read_update")
        return {db: run_campaign("fig2", db, STRESS_SCALE, rfs=(1, 6),
                                 workloads=workloads)
                for db in ("hbase", "cassandra")}

    def test_f5_cassandra_peak_falls_with_rf(self, stress):
        sweep = stress["cassandra"]
        assert sweep[6]["read_mostly"]["peak_throughput"] < \
            sweep[1]["read_mostly"]["peak_throughput"] * 0.8

    def test_f5_hbase_holds_up_better_than_cassandra(self, stress):
        def retention(sweep, workload):
            return (sweep[6][workload]["peak_throughput"]
                    / sweep[1][workload]["peak_throughput"])

        assert retention(stress["hbase"], "read_mostly") > \
            retention(stress["cassandra"], "read_mostly")

    def test_f5_cassandra_latency_at_peak_rises_with_rf(self, stress):
        sweep = stress["cassandra"]
        assert sweep[6]["read_mostly"]["latency_ms"] > \
            sweep[1]["read_mostly"]["latency_ms"]

    def test_f5_closed_loop_littles_law(self, stress):
        saturated = 0
        for sweep in stress.values():
            for per_workload in sweep.values():
                for cell in per_workload.values():
                    for target, runtime, mean_ms in cell["per_target"]:
                        if mean_ms > 0:
                            cap = STRESS_SCALE.n_threads / (mean_ms / 1000.0)
                            assert runtime <= cap * 1.3
                            # A point that misses its target (or has
                            # none) sits on the curve, not just under it.
                            if target is None or runtime < 0.9 * target:
                                assert runtime > cap * 0.5
                                saturated += 1
        assert saturated > 0


class TestFig3Shapes:
    @pytest.fixture(scope="class")
    def consistency(self):
        return run_campaign(
            "fig3", scale=STRESS_SCALE,
            workloads=("read_latest", "scan_short_ranges", "read_update"))

    def test_f6b_scan_insensitive_to_cl(self, consistency):
        peaks = [consistency[mode]["scan_short_ranges"]["peak_throughput"]
                 for mode in consistency]
        assert max(peaks) < min(peaks) * 2.0

    def test_f6c_one_wins_write_heavy(self, consistency):
        peaks = {mode: consistency[mode]["read_update"]["peak_throughput"]
                 for mode in consistency}
        assert peaks["ONE"] >= max(peaks.values()) * 0.8

    def test_f6c_write_all_pays_for_stragglers(self, consistency):
        peaks = {mode: consistency[mode]["read_update"]["peak_throughput"]
                 for mode in consistency}
        assert peaks["write ALL"] < peaks["ONE"]

    def test_runtime_capped_by_target(self, consistency):
        # The YCSB throttle is a cap, not a hint.
        for per_workload in consistency.values():
            for cell in per_workload.values():
                for target, runtime in cell["series"]:
                    if target is not None:
                        assert runtime <= target * 1.15


class TestConsistencyCorrectness:
    def test_modes_cover_paper_rounds(self):
        from repro.core.sweep import CONSISTENCY_MODES
        assert set(CONSISTENCY_MODES) == {"ONE", "QUORUM", "write ALL"}
        read_cl, write_cl = CONSISTENCY_MODES["write ALL"]
        assert read_cl is ConsistencyLevel.ONE
        assert write_cl is ConsistencyLevel.ALL


class TestFailoverShapes:
    """The availability story (Pokluda et al., the paper's §5 citation):
    Cassandra's hinted handoff rides out a crash at weak consistency;
    HBase blocks the dead server's regions until the HMaster reassigns
    them."""

    @pytest.fixture(scope="class")
    def cassandra_crash(self):
        sweep = run_campaign("failover", "cassandra", QUICK_FAILOVER,
                             faults=("crash",), modes=("ONE",))
        return sweep["crash"]["ONE"]

    @pytest.fixture(scope="class")
    def hbase_crash(self):
        sweep = run_campaign("failover", "hbase", QUICK_FAILOVER,
                             faults=("crash",))
        return sweep["crash"]["n/a"]

    def test_cassandra_one_rides_out_crash_without_errors(
            self, cassandra_crash):
        report = cassandra_crash["failover"]
        assert cassandra_crash["errors"] == 0
        assert report["errors_by_type"] == {}
        # No throughput dip either: the ring keeps serving.
        assert report["time_to_recovery_s"] == 0.0

    def test_cassandra_crash_stores_and_replays_hints(self):
        # The mechanism behind the ride-through: writes to the dead
        # replica become hints and land after restart.
        from dataclasses import replace as dc_replace

        from repro.cluster.config import FaultSpec
        from repro.core.config import default_stress_config
        from repro.core.experiment import ExperimentSession

        config = default_stress_config("cassandra", "read_update",
                                       replication=3,
                                       target_throughput=1_000.0, seed=7)
        config = dc_replace(config, record_count=3_000,
                            operation_count=8_000, n_threads=16, n_nodes=8,
                            faults=(FaultSpec(kind="crash", node_id=0,
                                              at_s=2.0, duration_s=3.0),))
        session = ExperimentSession(config)
        session.load()
        session.run_cell(inject_faults=True)
        stats = session.deployment.total_stats()
        assert stats["hints_stored"] > 0
        delivered = sum(n.hints.delivered
                        for n in session.deployment.nodes.values())
        assert delivered > 0
        outstanding = sum(len(n.hints)
                          for n in session.deployment.nodes.values())
        assert outstanding == 0

    def test_hbase_crash_shows_recovery_window(self, hbase_crash):
        report = hbase_crash["failover"]
        # Clients stall on the dead server's regions until the HMaster
        # notices (detection tick) and moves them: a measurable window...
        assert report["time_to_detection_s"] is not None
        assert report["time_to_recovery_s"] > 1.0
        # ...but bounded: well before the node's restart, reassignment
        # has already restored service.
        assert report["time_to_recovery_s"] < \
            QUICK_FAILOVER.fault.duration_s + 3.0

    def test_hbase_recovers_before_run_ends(self, hbase_crash):
        report = hbase_crash["failover"]
        timeline = report["timeline"]
        expected = QUICK_FAILOVER.targets[0] * report["bucket_s"]
        recovered = [ops for start, ops, _, _ in timeline
                     if start >= (report["fault_at_s"]
                                  + report["time_to_recovery_s"])]
        # Post-recovery buckets run at the offered load again.
        assert any(ops > 0.9 * expected for ops in recovered)


class TestTailDefenseShapes:
    """The tail-latency defense story: one degraded disk dominates the
    undefended read p99 at RF=3/CL=ONE; hedged reads route around it
    without hurting the median.  Uniform overload is a different beast —
    there only bounded queues help, and they must fail loudly (explicit
    ``Overloaded`` sheds), not by silent timeout."""

    @pytest.fixture(scope="class")
    def slow_replica(self):
        sweep = run_campaign("tail", "cassandra", QUICK_TAIL,
                             modes=("none", "hedge"),
                             scenarios=("slow_replica",))
        return sweep["slow_replica"]

    @pytest.fixture(scope="class")
    def healthy(self):
        sweep = run_campaign("tail", "cassandra", QUICK_TAIL,
                             modes=("none",), scenarios=("healthy",))
        return sweep["healthy"]

    @pytest.fixture(scope="class")
    def overload(self):
        sweep = run_campaign("tail", "cassandra", QUICK_TAIL,
                             modes=("none", "deadline"),
                             scenarios=("overload",))
        return sweep["overload"]

    @pytest.fixture(scope="class")
    def hbase_slow_server(self):
        sweep = run_campaign("tail", "hbase", QUICK_TAIL,
                             modes=("none", "deadline"),
                             scenarios=("slow_replica",))
        return sweep["slow_replica"]

    def test_hedging_collapses_slow_replica_p99(self, slow_replica):
        # The issue's acceptance bar: hedged p99 at most half the
        # undefended p99 under one 8x-slow disk.
        assert slow_replica["hedge"]["p99_ms"] <= \
            0.5 * slow_replica["none"]["p99_ms"]

    def test_hedging_leaves_median_intact(self, slow_replica, healthy):
        # Speculation is a tail tool; the common case must not pay for
        # it (< 10% median regression).  The reference is the fault-free
        # cell, not the undefended fault cell: with no defense the
        # closed-loop threads park on the gray replica, the achieved
        # load collapses, and the surviving ops see an artificially
        # *deflated* median — hedging sustains the offered load, so
        # comparing against that collapse would punish the defense for
        # working.
        assert slow_replica["hedge"]["p50_ms"] < \
            1.10 * healthy["none"]["p50_ms"]

    def test_overload_sheds_are_explicit(self, overload):
        errors = overload["deadline"]["errors_by_type"]
        assert errors.get("Overloaded", 0) > 0
        # Shedding is what bounds the tail of the requests that are served.
        assert overload["deadline"]["p99_ms"] < overload["none"]["p99_ms"]

    def test_hbase_tail_is_defended_by_deadlines(self, hbase_slow_server):
        # Single-owner regions leave hedging no alternate replica: the
        # defended p99 sits well under the undefended one, paid for with
        # explicit DeadlineExceeded errors.
        none, deadline = (hbase_slow_server[mode]
                          for mode in ("none", "deadline"))
        assert deadline["p99_ms"] < 0.7 * none["p99_ms"]
        assert deadline["errors_by_type"].get("DeadlineExceeded", 0) > 0


class TestGeoShapes:
    """The geo-replication robustness story (§6 future work, built out):
    during a remote-DC partition LOCAL_QUORUM keeps serving at local
    latency, EACH_QUORUM refuses honestly, and once the partition heals
    hinted handoff leaves zero acknowledged writes behind."""

    @pytest.fixture(scope="class")
    def geo(self):
        return run_campaign("geo", scale=CAMPAIGNS["geo"].quick,
                            scenarios=("dc_partition",))

    def test_local_quorum_remote_regions_ride_out_dc_partition(self, geo):
        # The partition takes out ap-southeast; the other two regions
        # never notice: full throughput, local-quorum latency, no errors.
        for region in ("eu-west", "us-west"):
            summary = geo["LOCAL_QUORUM"]["dc_partition"][region]
            assert summary["errors"] == 0
            assert summary["p99_ms"] < 50.0
            assert summary["throughput"] > 0.9 * summary["target"]

    def test_local_quorum_partitioned_region_fails_honestly(self, geo):
        # The dead region's own client gets refused (no live local
        # coordinator and no remote DC can stand in for a LOCAL_QUORUM)
        # rather than silently served stale data from another DC.
        summary = geo["LOCAL_QUORUM"]["dc_partition"]["ap-southeast"]
        assert summary["errors"] > 0
        cons = summary["consistency"]
        assert cons["violations_by_kind"]["stale_read"] == 0
        assert cons["violations_by_kind"]["linearizability"] == 0

    def test_each_quorum_errors_honestly_not_timeouts(self, geo):
        # A write that cannot reach the partitioned DC's quorum is
        # refused up front with UnavailableError — never a timeout and
        # never a silent success.
        refused = 0
        for region in ("eu-west", "us-west"):
            summary = geo["EACH_QUORUM"]["dc_partition"][region]
            by_type = summary["errors_by_type"]
            assert set(by_type) <= {"UnavailableError"}
            refused += by_type.get("UnavailableError", 0)
        assert refused > 0

    def test_quorum_pays_the_wan_where_local_quorum_does_not(self, geo):
        lq = geo["LOCAL_QUORUM"]["dc_partition"]["eu-west"]
        q = geo["QUORUM"]["dc_partition"]["eu-west"]
        # Global quorum spans an ocean; local quorum stays in-region.
        assert q["p95_ms"] > 20 * lq["p95_ms"]

    def test_no_acked_write_lost_after_heal(self, geo):
        # The convergence check runs after quiescence + hint drain: any
        # acknowledged write still missing from a healed replica counts.
        for mode, scenarios in geo.items():
            for region, summary in scenarios["dc_partition"].items():
                cons = summary["consistency"]
                assert cons["violations_by_kind"]["convergence"] == 0, \
                    (mode, region)


class TestGeoStalenessShapes:
    """LOCAL_ONE with read repair off keeps its staleness window open —
    and the oracle's findings replay bit-identically."""

    def _run_cell(self):
        # A full geo cell: one persistent database, one recorded run
        # per client region (the sweep's shape).  The partitioned
        # region's own run is where staleness shows: once its DC dies,
        # LOCAL_ONE falls back over the WAN to replicas that never saw
        # its locally-acknowledged writes.
        # The quick campaign's partitioned cell, with read repair off
        # and LOCAL_ONE as the deployment's default levels.
        from repro.core.experiment import ExperimentSession
        config = campaign_cells("geo", scale=CAMPAIGNS["geo"].quick,
                                modes=("LOCAL_ONE",),
                                scenarios=("dc_partition",))[0].config
        config = replace(config, engine=replace(
            config.engine, read_cl=ConsistencyLevel.LOCAL_ONE,
            write_cl=ConsistencyLevel.LOCAL_ONE, read_repair_chance=0.0,
            blocking_read_repair=False))
        session = ExperimentSession(config)
        session.load()
        reports = {}
        for region, _ in config.geo.datacenters:
            result = session.run_cell(inject_faults=True,
                                      check_consistency=True,
                                      client_dc=region)
            reports[region] = result.reports["consistency"]
        return reports

    def test_local_one_no_repair_staleness_observable(self):
        reports = self._run_cell()
        stale = reports["ap-southeast"]
        assert stale["strong"] is False
        assert stale["violations_by_kind"]["stale_read"] > 0
        assert stale["max_staleness_lag_s"] > 0.0
        # The weak config is *honestly* weak, not broken: no acked
        # write is lost once the partition heals.
        for region, cons in reports.items():
            assert cons["violations_by_kind"]["convergence"] == 0, region

    def test_staleness_findings_reproduce_bit_identically(self):
        first = self._run_cell()
        second = self._run_cell()
        # A violating run is a repeatable test case, not a flake.
        assert first == second


class TestFlashCrowdShapes:
    """The flash-crowd survival story: an open-loop 10x spike turns the
    naive retrying client into its own worst enemy (retry amplification
    collapses goodput), while the full defense stack — breaker, retry
    budget, rate limiter, load leveling, cache-aside — sheds loudly at
    the client and sustains a multiple of the undefended goodput, with
    the cache's staleness priced (and bounded) by the oracle."""

    @pytest.fixture(scope="class")
    def surge(self):
        return run_campaign("surge", "cassandra", QUICK_SURGE,
                            modes=("undefended", "full"),
                            scenarios=("steady", "flash_crowd"))

    def test_steady_control_is_clean(self, surge):
        # At the base rate both stacks are invisible: every arrival is
        # served, goodput tracks the offered rate, nothing is shed.
        for mode in ("undefended", "full"):
            summary = surge["steady"][mode]
            assert summary["errors"] == 0, mode
            assert summary["goodput"] > 0.95 * summary["offered_per_s"], mode

    def test_flash_crowd_collapses_undefended_goodput(self, surge):
        # The spike drives queueing delay past the op timeout; timed-out
        # work still burns server capacity, so goodput lands far below
        # the offered rate — the metastable-failure signature.
        summary = surge["flash_crowd"]["undefended"]
        assert summary["goodput"] < 0.5 * summary["offered_per_s"]

    def test_undefended_client_retry_storm(self, surge):
        # Retry amplification: the naive client issues nearly as many
        # (or more) retries than the entire offered load, while the
        # budgeted stack holds retries to a small fraction of it.
        undefended = surge["flash_crowd"]["undefended"]
        full = surge["flash_crowd"]["full"]
        assert undefended["clienttier"]["retry"]["retried"] > \
            0.8 * undefended["offered"]
        assert full["clienttier"]["retry"]["retried"] < \
            0.1 * undefended["clienttier"]["retry"]["retried"]

    def test_full_stack_sustains_twice_undefended_goodput(self, surge):
        # The issue's acceptance bar: the composed defenses keep at
        # least 2x the undefended goodput through the same spike.
        assert surge["flash_crowd"]["full"]["goodput"] >= \
            2.0 * surge["flash_crowd"]["undefended"]["goodput"]

    def test_full_stack_fails_loudly_at_the_client(self, surge):
        # Every refused request is an explicit client-side decision
        # (shed at the leveling queue, clipped by a tenant bucket, or
        # failed fast by the breaker) — no store-side timeouts at all.
        by_type = surge["flash_crowd"]["full"]["errors_by_type"]
        client_side = {"LoadShed", "RateLimited", "BreakerOpen"}
        assert by_type.get("LoadShed", 0) > 0
        assert set(by_type) <= client_side, by_type

    def test_cache_staleness_priced_and_bounded(self, surge):
        # The oracle records *outside* the cache-aside tier, so stale
        # cache serves are real findings — expected at CL ONE, bounded
        # by the TTL (plus the replication staleness CL ONE always
        # allows), and never accompanied by lost acknowledged writes.
        from repro.consistency.oracle import unexpected_violations
        for scenario, modes in surge.items():
            for mode, summary in modes.items():
                cons = summary["consistency"]
                assert unexpected_violations(cons) == 0, (scenario, mode)
                assert cons["violations_by_kind"]["convergence"] == 0, \
                    (scenario, mode)
        full = surge["flash_crowd"]["full"]["consistency"]
        assert full["max_staleness_lag_s"] <= \
            QUICK_SURGE.clienttier.cache_ttl_s + 0.5

    def test_hbase_stack_earns_its_keep_under_the_compound_failure(self):
        sweep = run_campaign(
            "surge", "hbase", QUICK_SURGE, modes=("undefended", "full"),
            scenarios=("flash_crowd", "flash_crowd+slow_replica"))
        # A healthy HBase deployment rides out the plain spike (its
        # driver masks timeouts behind internal retries), so the
        # defenses must not cost goodput there.
        crowd = sweep["flash_crowd"]
        assert crowd["full"]["goodput"] >= \
            0.95 * crowd["undefended"]["goodput"]
        # Spike + slow region server: the naive client's p99.9 runs away
        # while the full stack bounds the tail and sustains a multiple
        # of the undefended goodput.
        compound = sweep["flash_crowd+slow_replica"]
        assert compound["full"]["goodput"] >= \
            1.3 * compound["undefended"]["goodput"]
        assert compound["full"]["p999_ms"] < \
            0.5 * compound["undefended"]["p999_ms"]


class TestElasticityShapes:
    """The elasticity story: scaling while serving is *safe* (the
    oracle certifies no acknowledged write is lost to a bootstrap or a
    region rebalance) and the autoscaler *decides from what
    it observes* (a diurnal ramp breaches the static cluster's p95 at
    every seed, and the policy loop answers each breach with the
    scale-out an operator would have scheduled).  Cells run without a
    warm phase so the static/elastic contrast stays sharp at unit-test
    scale."""

    #: The HBase shapes are asserted at three seeds: a shape that holds
    #: on one schedule only is an accident of that schedule.
    SEEDS = (42, 43, 44)

    @staticmethod
    def _session(db, mode, seed=None):
        from repro.core.experiment import ExperimentSession
        scale = QUICK_ELASTIC
        if seed is not None:
            scale = replace(scale, seed=seed)
        config = campaign_cells("scale", db, scale, modes=(mode,),
                                scenarios=("diurnal",))[0].config
        session = ExperimentSession(config)
        session.load()
        return session

    @staticmethod
    def _measure(session):
        from repro.core.experiment import summarize_run
        kwargs = {}
        if session.config.db == "cassandra":
            kwargs = dict(read_cl=session.config.engine.read_cl,
                          write_cl=session.config.engine.write_cl)
        return summarize_run(session.run_cell(
            open_loop=True, scale=True, check_consistency=True, **kwargs))

    @classmethod
    def _run(cls, db, mode, seed=None):
        return cls._measure(cls._session(db, mode, seed=seed))

    @pytest.fixture(scope="class")
    def diurnal(self):
        """``(db, mode, seed) -> summary``: HBase at every seed of
        ``SEEDS``, Cassandra at the scale's own."""
        modes = ("static", "manual", "auto")
        cells = {("hbase", mode, seed): self._run("hbase", mode, seed=seed)
                 for seed in self.SEEDS for mode in modes}
        cells.update({("cassandra", mode, 42): self._run("cassandra", mode)
                      for mode in modes})
        return cells

    def test_static_diurnal_breaches_the_bar_at_every_seed(self, diurnal):
        for seed in self.SEEDS:
            static = diurnal[("hbase", "static", seed)]
            # The ramp saturates the static cluster far past the breach
            # bar — five to ten times, not by one unlucky compaction.
            assert static["p95_ms"] \
                > 3 * P95_BREACH_MS, seed

    def test_elastic_restores_goodput(self, diurnal):
        # An HBase scale-out moves one region of eight, picked by count
        # and not by load, and the moved region reads its HFiles over
        # the network until compaction rewrites them locally — so what
        # one scale-out buys depends on whether the donor was the hot
        # server (per seed: manual +4..+14 %, auto -2..+15 %).  What
        # holds whatever the schedule: every elastic cell acts, serves
        # everything it was offered, and over the seeds together drains
        # the ramp sooner than the static control.
        static = sum(diurnal[("hbase", "static", seed)]["throughput"]
                     for seed in self.SEEDS)
        for mode in ("manual", "auto"):
            cells = [diurnal[("hbase", mode, seed)] for seed in self.SEEDS]
            for seed, elastic in zip(self.SEEDS, cells):
                assert elastic["scale"]["actions"] >= 1, (mode, seed)
                assert elastic["errors"] == 0, (mode, seed)
            assert sum(c["throughput"] for c in cells) > static, mode

    def test_autoscaler_decides_from_breach(self, diurnal):
        # The autoscaler fires the same scale-out the operator scheduled
        # manually — but from observed p95, not a clock.
        for seed in self.SEEDS:
            events = [e for _, e, _ in diurnal[("hbase", "auto", seed)]
                      ["scale"]["events"]]
            assert events == ["out_start", "out_done"], seed

    def test_cassandra_bootstrap_streams_and_serves(self, diurnal):
        manual = diurnal[("cassandra", "manual", 42)]
        report = manual["scale"]
        assert report["actions"] == 1
        assert report["streamed_bytes"] > 0
        before = report["phases"]["before"]
        after = report["phases"]["after"]
        # The joiner pulled its ranges and then *served* them: latency
        # past the swap beats latency before it.
        assert after["ops"] > 0
        assert after["p95_ms"] < before["p95_ms"]

    def test_no_acked_write_lost_across_topology_changes(self, diurnal):
        from repro.consistency.oracle import unexpected_violations
        for cell, summary in diurnal.items():
            assert unexpected_violations(summary["consistency"]) == 0, cell
