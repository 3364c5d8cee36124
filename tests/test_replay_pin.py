"""Deterministic-replay pin: same seed, same trace, byte for byte.

The consistency explorer's headline claim — every violating seed is a
repeatable test case — rests on the kernel being fully deterministic
given a config.  These tests pin that property at its strongest: two
in-process executions of the same cell must produce an *identical
kernel event trace* (every processed event, in order, hashed) and an
identical JSON-serialized run summary, for both a healthy benchmark
cell and a fault-injected failover cell.
"""

import json
from dataclasses import replace

from repro.cluster.config import FaultSpec
from repro.core.config import default_micro_config, scaled_stress_storage
from repro.core.sweep import CAMPAIGNS, campaign_cells
from tests.conftest import traced_run


def _micro_config():
    config = default_micro_config("cassandra", "read", seed=7)
    return replace(config, record_count=300, operation_count=300,
                   n_threads=4, n_nodes=5, settle_s=1.0)


def _failover_config():
    config = campaign_cells("check", "hbase", seeds=(11,))[0].config
    return replace(
        config, record_count=200, operation_count=800,
        target_throughput=1_000.0, n_nodes=5,
        storage=scaled_stress_storage(200, 1000, 4),
        faults=(FaultSpec(kind="crash", node_id=0, at_s=0.3,
                          duration_s=0.5),))


class TestReplayPin:
    def test_micro_cell_replays_bit_identically(self):
        first = traced_run(_micro_config())
        second = traced_run(_micro_config())
        assert first[1] > 0
        assert first == second

    def test_failover_cell_replays_bit_identically(self):
        first = traced_run(_failover_config(), inject_faults=True)
        second = traced_run(_failover_config(), inject_faults=True)
        assert first[1] > 0
        assert first == second

    def test_different_seeds_diverge(self):
        """The trace is sensitive: a different seed means a different
        schedule, so matching digests are not vacuous."""
        base = _micro_config()
        first = traced_run(base)
        other = traced_run(replace(base, seed=8))
        assert first[0] != other[0]


def _geo_config():
    config = campaign_cells("geo", scale=CAMPAIGNS["geo"].quick,
                            modes=("LOCAL_QUORUM",),
                            scenarios=("dc_partition",))[0].config
    return replace(
        config, record_count=200, operation_count=400, n_threads=4,
        seed=13, storage=scaled_stress_storage(200, 1000, 6),
        faults=(FaultSpec(kind="dc_partition", datacenter="ap-southeast",
                          at_s=0.2, duration_s=0.4),))


def _traced_geo_run(client_dc):
    """One checked geo run (fault armed, oracle on), traced."""
    return traced_run(_geo_config(), inject_faults=True,
                      check_consistency=True, client_dc=client_dc)


class TestGeoReplayPin:
    """The geo stack (WAN-aware RPC legs, DC faults, hint drain,
    cross-DC oracle) preserves the kernel's bit-for-bit determinism."""

    def test_geo_cell_replays_bit_identically(self):
        first = _traced_geo_run("eu-west")
        second = _traced_geo_run("eu-west")
        assert first[1] > 0
        assert first == second

    def test_geo_regions_diverge(self):
        """Different client regions drive different schedules, so the
        matching digests above are not vacuous."""
        eu = _traced_geo_run("eu-west")
        ap = _traced_geo_run("ap-southeast")
        assert eu[0] != ap[0]

    def test_geo_cells_jobs_match_serial(self):
        """The campaign runner returns byte-identical payloads whether
        cells run serially in-process or across worker processes."""
        from repro.core.runner import CellRunner
        full = CAMPAIGNS["geo"].full
        scale = replace(full, record_count=200, operation_count=400,
                        n_threads=4, geo=CAMPAIGNS["geo"].quick.geo,
                        targets=(600.0,),
                        fault=replace(full.fault, at_s=0.2, duration_s=0.4))
        cells = campaign_cells("geo", scale=scale,
                               modes=("LOCAL_ONE", "LOCAL_QUORUM"),
                               scenarios=("dc_partition",))
        serial = CellRunner(jobs=1, cache=False).run(cells)
        parallel = CellRunner(jobs=2, cache=False).run(cells)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)


def _elastic_scale():
    full = CAMPAIGNS["scale"].full
    return replace(
        full, record_count=600, n_nodes=5, seed=17,
        arrivals=replace(full.arrivals, rate=400.0, max_arrivals=2_500,
                         period_s=8.0),
        elasticity=replace(full.elasticity, cooldown_s=3.0,
                           events=(2.0,)))


def _elastic_config(mode):
    return campaign_cells("scale", "cassandra", _elastic_scale(),
                          modes=(mode,), scenarios=("diurnal",))[0].config


def _traced_scale_run(mode):
    """One oracle-checked elastic run (live bootstrap mid-run), traced."""
    return traced_run(_elastic_config(mode), open_loop=True, scale=True,
                      check_consistency=True)


class TestScaleReplayPin:
    """Elasticity (pending double-writes, range streaming, topology
    swap, the autoscaler's policy loop) preserves the kernel's
    bit-for-bit determinism — every scale decision replays exactly."""

    def test_elastic_cell_replays_bit_identically(self):
        first = _traced_scale_run("manual")
        second = _traced_scale_run("manual")
        assert first[1] > 0
        assert first == second

    def test_scale_modes_diverge(self):
        """Bootstrap traffic changes the schedule, so the matching
        digests above are not vacuous."""
        manual = _traced_scale_run("manual")
        static = _traced_scale_run("static")
        assert manual[0] != static[0]

    def test_scale_cells_jobs_match_serial(self):
        """``repro-bench scale`` payloads are byte-identical whether the
        cells run serially in-process or across worker processes."""
        from repro.core.runner import CellRunner
        cells = campaign_cells("scale", "cassandra", _elastic_scale(),
                               modes=("manual", "auto"),
                               scenarios=("diurnal",))
        serial = CellRunner(jobs=1, cache=False).run(cells)
        parallel = CellRunner(jobs=2, cache=False).run(cells)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
