"""Unit tests for report rendering."""

from repro.core.report import render_table, walk_leaves
from repro.core.sweep import render_campaign


class TestRenderTable:
    def test_headers_and_rows_aligned(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, 2 rows
        assert "name" in lines[0] and "value" in lines[0]

    def test_title_line(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = render_table(["v"], [[3.14159], [123.456]])
        assert "3.142" in text
        assert "123.5" in text


def _op(mean_ms, joules_per_op=1.0, ops=100):
    return {"mean_ms": mean_ms, "ops": ops, "joules_per_op": joules_per_op,
            "usd_per_mops": 0.5}


class TestRenderCampaigns:
    def test_walk_leaves_depth(self):
        sweep = {"a": {"x": 1, "y": 2}, "b": {"x": 3}}
        assert list(walk_leaves(sweep, 2)) == [
            (("a", "x"), 1), (("a", "y"), 2), (("b", "x"), 3)]
        assert list(walk_leaves(sweep, 0)) == [((), sweep)]

    def test_fig1_one_row_per_rf_in_paper_op_order(self):
        sweep = {rf: {"read": _op(1.0), "update": _op(0.5),
                      "insert": _op(0.7), "scan": _op(9.0)}
                 for rf in (1, 3)}
        text = render_campaign("fig1", sweep, "hbase")
        lines = text.splitlines()
        assert "Fig.1" in lines[0] and "hbase" in lines[0]
        assert lines[1].split()[:9] == ["RF", "update", "ms", "read", "ms",
                                       "insert", "ms", "scan", "ms"]
        assert len(lines) == 5

    def test_fig1_row_energy_is_joules_over_ops(self):
        # 100 ops at 1 J/op + 300 ops at 3 J/op = 1000 J / 400 ops.
        sweep = {1: {"update": _op(1.0, 1.0, 100), "read": _op(1.0, 3.0, 300),
                     "insert": _op(1.0, None, 0), "scan": _op(1.0, None, 0)}}
        assert "2.500" in render_campaign("fig1", sweep, "hbase")

    def test_fig2(self):
        sweep = {1: {"read_mostly": {"peak_throughput": 1000.0,
                                     "latency_ms": 2.0, "per_target": [],
                                     "joules_per_op": 1.25,
                                     "usd_per_mops": 0.5}}}
        text = render_campaign("fig2", sweep, "cassandra")
        assert "Fig.2" in text and "read_mostly" in text
        assert "1.250" in text.splitlines()[-1]

    def test_fig3_panels_transpose_modes_into_columns(self):
        def cell(series):
            return {"series": series, "peak_throughput": series[-1][1],
                    "joules_per_op": 2.0, "usd_per_mops": None}
        sweep = {"ONE": {"read_latest": cell([(100.0, 90.0),
                                              (200.0, 150.0)])},
                 "QUORUM": {"read_latest": cell([(100.0, 95.0),
                                                 (200.0, 160.0)])}}
        lines = render_campaign("fig3", sweep).splitlines()
        assert "Fig.3" in lines[0] and "read_latest" in lines[0]
        assert lines[1].split() == ["target", "ops/s", "ONE", "QUORUM"]
        # Two target rows, then the energy "columns" as the last two rows.
        assert lines[-2].split() == ["J/op", "2.000", "2.000"]
        assert lines[-1].split() == ["$/Mops", "max", "max"]

    def test_energy_sweep_zero_ops_renders_max(self):
        # An all-errors cell stores None under the key: rendered as
        # "max", never as free and never as a crash.
        summary = {"throughput": 0.0, "p95_ms": 0.0, "p99_ms": 0.0,
                   "joules_per_op": None, "usd_per_mops": None,
                   "energy": {"idle_j": 10.0, "sleep_j": 0.0, "wakes": 0,
                              "wake_latency_s": 0.0},
                   "consistency": {"max_staleness_lag_s": 0.0,
                                   "violations": 0}}
        text = render_campaign("energy", {3: {"ONE": {"always_on": summary}}},
                               "cassandra")
        assert "max" in text

    def test_optional_keys_render_as_dash(self):
        """``consistency`` (HBase surge cells), ``clienttier`` and
        ``scale`` are genuinely optional in a summary."""
        summary = {"ops": 10, "throughput": 10.0, "errors": 0,
                   "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0,
                   "p999_ms": 4.0, "joules_per_op": 1.0, "usd_per_mops": 2.0}
        surge = render_campaign("surge", {"spike": {"none": summary}},
                                "hbase").splitlines()[-1].split()
        assert surge.count("-") == 2  # cache hit rate, max lag
        scale = render_campaign("scale", {"ramp": {"static": summary}},
                                "hbase").splitlines()[-1].split()
        assert scale.count("-") == 4  # three phases, violations
