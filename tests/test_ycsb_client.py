"""Integration tests for the closed-loop YCSB client."""

from dataclasses import replace

import pytest

from repro.cluster.topology import Cluster, ClusterSpec, TailDefenseConfig
from repro.core.config import default_stress_config
from repro.core import experiment
from repro.core.experiment import ExperimentSession
from repro.keyspace import key_for_index
from repro.hbase.client import HBaseClient
from repro.hbase.config import HBaseConfig
from repro.hbase.deployment import HBaseCluster
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.storage.lsm import StorageSpec
from repro.ycsb.client import YcsbClient
from repro.ycsb.workload import STRESS_WORKLOADS, Workload, WorkloadSpec

pytestmark = pytest.mark.hashseed


def build_client(workload_spec=None, records=500, seed=3):
    env = Environment()
    rngs = RngRegistry(seed)
    cluster = Cluster(env, ClusterSpec(n_nodes=5), rngs)
    hbase = HBaseCluster(
        cluster, HBaseConfig(replication=2),
        StorageSpec(memtable_flush_bytes=16384, block_bytes=2048,
                    block_cache_bytes=16384),
        TailDefenseConfig())
    spec = workload_spec or STRESS_WORKLOADS["read_update"]
    workload = Workload(spec, records, rngs.stream("wl"))
    client = YcsbClient(env, HBaseClient(hbase, hbase.master_node), workload)
    return env, client, workload


def drive(env, generator):
    return env.run(until=env.process(generator))


class TestLoadPhase:
    def test_load_inserts_all_records(self):
        env, client, _ = build_client(records=300)
        result = drive(env, client.load(300, n_threads=8))
        assert result.records == 300
        assert result.throughput > 0

    def test_loaded_records_readable(self):
        env, client, _ = build_client(records=200)
        drive(env, client.load(200, n_threads=8))

        def verify():
            found = 0
            for i in range(200):
                result = yield from client.db.read(key_for_index(i), 1000)
                if result is not None:
                    found += 1
            return found

        assert drive(env, verify()) == 200

    def test_more_threads_load_faster(self):
        env1, client1, _ = build_client(records=400, seed=5)
        slow = drive(env1, client1.load(400, n_threads=2))
        env2, client2, _ = build_client(records=400, seed=5)
        fast = drive(env2, client2.load(400, n_threads=16))
        assert fast.duration_s < slow.duration_s


class TestRunPhase:
    def test_run_executes_requested_ops(self):
        env, client, _ = build_client(records=400)
        drive(env, client.load(400, n_threads=8))
        result = drive(env, client.run(500, n_threads=8,
                                       warmup_fraction=0.0))
        assert result.operations == 500
        assert result.duration_s > 0
        assert result.throughput > 0

    def test_warmup_excluded_from_measurements(self):
        env, client, _ = build_client(records=400)
        drive(env, client.load(400, n_threads=8))
        result = drive(env, client.run(500, n_threads=8,
                                       warmup_fraction=0.2))
        assert result.operations == 400  # 100 warm-up ops unrecorded

    def test_mix_is_recorded_per_op(self):
        env, client, _ = build_client(records=400)
        drive(env, client.load(400, n_threads=8))
        result = drive(env, client.run(600, n_threads=8,
                                       warmup_fraction=0.0))
        reads = result.stats("read").count
        updates = result.stats("update").count
        assert reads + updates == 600
        assert reads > updates  # 50/50 ± noise would fail; it's ~50/50
        assert abs(reads - 300) < 80

    def test_target_throttle_caps_rate(self):
        env, client, _ = build_client(records=400)
        drive(env, client.load(400, n_threads=8))
        result = drive(env, client.run(400, n_threads=8,
                                       target_throughput=500.0,
                                       warmup_fraction=0.0))
        assert result.throughput <= 600  # near but not above target

    def test_unthrottled_exceeds_throttled(self):
        env, client, _ = build_client(records=400, seed=7)
        drive(env, client.load(400, n_threads=8))
        throttled = drive(env, client.run(300, n_threads=8,
                                          target_throughput=300.0,
                                          warmup_fraction=0.0))
        free = drive(env, client.run(300, n_threads=8,
                                     warmup_fraction=0.0))
        assert free.throughput > throttled.throughput * 1.5

    def test_closed_loop_latency_throughput_inverse(self):
        """The paper's F5: runtime throughput inversely tracks latency."""
        env, client, _ = build_client(records=400, seed=9)
        drive(env, client.load(400, n_threads=8))
        result = drive(env, client.run(400, n_threads=4,
                                       warmup_fraction=0.0))
        predicted = 4 / result.overall().mean
        assert result.throughput == pytest.approx(predicted, rel=0.35)

    def test_rmw_counts_as_single_op(self):
        spec = WorkloadSpec(name="rmw_only",
                            read_modify_write_proportion=1.0,
                            record_bytes=500)
        env, client, _ = build_client(spec, records=300)
        drive(env, client.load(300, n_threads=8))
        result = drive(env, client.run(200, n_threads=4,
                                       warmup_fraction=0.0))
        assert result.stats("read_modify_write").count == 200

    def test_scan_workload_runs(self):
        env, client, _ = build_client(STRESS_WORKLOADS["scan_short_ranges"],
                                      records=400)
        drive(env, client.load(400, n_threads=8))
        result = drive(env, client.run(150, n_threads=4,
                                       warmup_fraction=0.0))
        assert result.stats("scan").count > 100

    def test_insert_workload_extends_population(self):
        env, client, workload = build_client(
            STRESS_WORKLOADS["read_latest"], records=300)
        drive(env, client.load(300, n_threads=8))
        drive(env, client.run(300, n_threads=4, warmup_fraction=0.0))
        assert workload.insert_counter.last() > 300


def stress_outcomes(db: str) -> dict:
    """Each Table 1 workload run once, in table order, on one small
    loaded RF 3 cluster: workload -> (``not_found``, samples per op,
    errors per op)."""
    config = replace(
        default_stress_config(db, "read_update", replication=3, seed=7),
        record_count=1000, operation_count=1000, n_nodes=5, n_threads=32,
        settle_s=1.0,
        storage=StorageSpec(memtable_flush_bytes=32 * 1024, block_bytes=4096,
                            block_cache_bytes=64 * 1024))
    session = ExperimentSession(config)
    session.load()
    outcomes = {}
    for name, spec in STRESS_WORKLOADS.items():
        result = session.run_cell(workload=spec)
        measurements = result.measurements
        outcomes[name] = (
            result.not_found,
            {op: len(times)
             for op, (times, _) in sorted(measurements.columns.items())},
            dict(sorted(measurements.errors.items())))
    return outcomes


class TestNotFoundPinned:
    """A write is always found, a read unless it returned ``None``, a
    scan if it returned rows, a read-modify-write if its read found the
    record: the per-workload miss counts stay as pinned.  No report
    carries ``not_found``, so no replay digest would notice a change to
    it."""

    @pytest.mark.parametrize("db", ["hbase", "cassandra"])
    def test_stress_workloads(self, db, golden, monkeypatch):
        # The pin is of a population inserted by 8 client threads: the
        # load's schedule decides where each later run starts.
        monkeypatch.setattr(experiment, "LOAD_THREADS", 8)
        outcomes = stress_outcomes(db)
        golden(outcomes)
        # Reads of just-inserted records are the ones that miss.
        assert outcomes["read_latest"][0] > 0


class StubBinding:
    """Deterministic DB: per-op latency from a script, completion log."""

    def __init__(self, env, latencies=None, default_latency=0.0):
        self.env = env
        self._latencies = list(latencies or [])
        self._default = default_latency
        self.completions = []

    def _serve(self):
        latency = (self._latencies.pop(0) if self._latencies
                   else self._default)
        yield self.env.timeout(latency)
        self.completions.append(self.env.now)

    def write(self, key, value, size):
        yield from self._serve()
        return True

    def read(self, key, size):
        yield from self._serve()
        return ("value", self.env.now)

    def scan(self, start_key, limit, record_bytes):
        yield from self._serve()
        return [("k", "v")]


UPDATE_ONLY = WorkloadSpec(name="update_only", update_proportion=1.0,
                           record_bytes=100)


def build_throttled(env, binding, n_ops, n_threads, target):
    rngs = RngRegistry(11)
    workload = Workload(UPDATE_ONLY, 100, rngs.stream("wl"))
    client = YcsbClient(env, binding, workload)
    return client.run(n_ops, n_threads=n_threads, target_throughput=target,
                      warmup_fraction=0.0)


class TestTargetThrottle:
    """Direct coverage of the pacing schedule in _run_worker."""

    def test_achieved_throughput_tracks_target(self):
        # Fast ops (1 ms) against a 200 ops/s cap: the throttle, not the
        # service time, must set the achieved rate.
        env = Environment()
        binding = StubBinding(env, default_latency=0.001)
        result = drive(env, build_throttled(env, binding, n_ops=400,
                                            n_threads=4, target=200.0))
        assert result.operations == 400
        assert result.throughput == pytest.approx(200.0, rel=0.1)

    def test_unthrottled_when_target_none(self):
        env = Environment()
        binding = StubBinding(env, default_latency=0.001)
        rngs = RngRegistry(11)
        workload = Workload(UPDATE_ONLY, 100, rngs.stream("wl"))
        client = YcsbClient(env, binding, workload)
        result = drive(env, client.run(400, n_threads=4,
                                       target_throughput=None,
                                       warmup_fraction=0.0))
        # 4 threads x 1 ms closed loop -> ~4000 ops/s, far above any cap.
        assert result.throughput > 1000.0

    def test_catchup_clamp_bounds_burst_after_stall(self):
        # One 2 s stall on the first op, then instant ops, single thread
        # at 10 ops/s (interval 0.1 s).  The clamp resets the schedule to
        # env.now - 5 * interval, so at most ~6-7 ops may fire back to
        # back; without it the whole 2 s backlog (~20 ops) would burst.
        env = Environment()
        binding = StubBinding(env, latencies=[2.0], default_latency=0.0)
        drive(env, build_throttled(env, binding, n_ops=40, n_threads=1,
                                   target=10.0))
        stall_end = binding.completions[0]
        assert stall_end == pytest.approx(2.0)
        burst = [t for t in binding.completions[1:]
                 if t <= stall_end + 1e-9]
        assert 2 <= len(burst) <= 7

        # After the burst the schedule is paced again: the remaining ops
        # arrive one interval apart.
        paced = binding.completions[1 + len(burst):]
        gaps = [b - a for a, b in zip(paced, paced[1:])]
        assert gaps and all(gap == pytest.approx(0.1) for gap in gaps)

    def test_clamp_drops_backlog_instead_of_replaying_it(self):
        env = Environment()
        binding = StubBinding(env, latencies=[2.0], default_latency=0.0)
        result = drive(env, build_throttled(env, binding, n_ops=40,
                                            n_threads=1, target=10.0))
        # Without the clamp the 2 s backlog (~19 ops) would burst and the
        # run would finish at t = 4.0 s, hitting the target rate exactly.
        # The clamp forgives only 5 intervals, so the makespan stretches
        # to ~2.0 s stall + 33 paced intervals and the achieved rate dips
        # below target — the throttle is a cap, never a catch-up hint.
        assert result.duration_s == pytest.approx(5.2, rel=0.02)
        assert result.throughput == pytest.approx(40 / 5.2, rel=0.02)
        assert result.throughput < 10.0

