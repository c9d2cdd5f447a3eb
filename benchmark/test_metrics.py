"""Tests for the benchmark's metric arithmetic on synthetic records and spans.

    python3 -m pytest benchmark/test_metrics.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import metrics  # noqa: E402
from maxplanar.bench import BenchmarkRecord  # noqa: E402
from tracing import Span  # noqa: E402


def rec(instance, label, ms, status="ok", kept=10, crossings=None, grid="w"):
    n = 0 if status != "ok" else 8  # the harness zeroes n and m on failures
    return BenchmarkRecord(instance, grid, n, n, label, 0, kept if status == "ok" else 0,
                           1.0, ms, status, crossings)


def key(instance, label, grid="w"):
    return metrics.CellKey(grid, instance, label, 0)


@pytest.fixture
def suite():
    """Two rounds of five cells; `a/bm+` timed out in one round and
    `b/exact` crashed in both."""
    records = [
        rec("a#r0", "naive", 100.0), rec("a#r1", "naive", 300.0),
        rec("a#r0", "bm+", 50.0), rec("a#r1", "bm+", 1500.0, status="timeout"),
        rec("a#r0", "planarize:bm", 20.0, crossings=7), rec("a#r1", "planarize:bm", 40.0, crossings=7),
        rec("a#r0", "exact", 10.0, kept=5), rec("a#r1", "exact", 30.0, kept=5),
        rec("b#r0", "exact", 0.0, status="error"), rec("b#r1", "exact", 0.0, status="error"),
    ]
    expected = [
        (key(i, label), rep)
        for rep in (0, 1)
        for i, label in (("a", "naive"), ("a", "bm+"), ("a", "planarize:bm"),
                         ("a", "exact"), ("b", "exact"))
    ]
    return records, expected


def test_failures_are_attributed_by_instance_id(suite):
    records, expected = suite
    assert metrics.failed_records(records, expected, set()) == 3
    # A missing record counts as failed, and so does a cell failing a check.
    assert metrics.failed_records(records[1:], expected, set()) == 4
    assert metrics.failed_records(records, expected, {key("a", "naive")}) == 5


def test_end_to_end(suite):
    records, expected = suite
    records = records + [rec("p#r0", "bm", 500.0, grid="probe")]
    out = metrics.end_to_end(
        records, expected, {key("a", "planarize:bm")}, {"w"}, 4.0, 0.2, 42.0
    )
    assert set(out) == set(metrics.E2E_UNITS)
    # The fastest ok round of each cell; the timed-out bm+ run and the
    # probe grid are left out.
    assert out["focus_s"] == pytest.approx(0.1 + 0.05 + 0.02 + 0.01)
    assert out["edges_kept"] == 10 + 10 + 10 + 5 + 10  # once per distinct ok cell
    assert out["crossings"] == 7
    assert out["exact_optimal"] == 1  # b/exact failed
    assert out["ok_share"] == pytest.approx((10 - 5) / 10)  # 3 failed records + 2 checked out
    assert out["setup_s"] == pytest.approx(0.2)
    assert out["wall_s"] == 4.0 and out["peak_rss_mb"] == 42.0


def test_label_times(suite):
    records, _ = suite
    out = metrics.label_times(records)
    assert out["label.naive_s"] == pytest.approx(0.1)
    assert out["label.bm_plus_s"] == pytest.approx(0.05)
    assert out["label.planarize_s"] == pytest.approx(0.02)
    assert out["label.exact_s"] == pytest.approx(0.01)
    assert out["label.bm_s"] == out["label.cactus_s"] == out["label.cactus_plus_s"] == 0.0


def test_trace_overhead_share(suite):
    records, _ = suite
    traced = {key("a", "naive"): rec("a", "naive", 300.0), key("b", "exact"): rec("b", "exact", 9.0)}
    # b/exact has no ok untraced record, so only a/naive counts: 300 / 100.
    assert metrics.trace_overhead_share(records, traced) == pytest.approx(3.0)


def test_cell_time_is_the_fastest_round():
    recs = [rec(f"a#r{i}", "bm", ms) for i, ms in enumerate((13.0, 90.0, 12.0, 21.0))]
    assert metrics.cell_seconds(recs) == pytest.approx(0.012)  # the slow rounds are left out


def test_wall_time_sums_each_cells_fastest_call(suite):
    records, _ = suite
    calls = [(r.runtime_ms / 1000.0 + 0.005, [r]) for r in records]
    # a/naive 0.105, a/bm+ 0.055, a/planarize:bm 0.025, a/exact 0.015,
    # b/exact 0.005: a failed cell's call still took wall time.
    assert metrics.wall_time(calls) == pytest.approx(0.105 + 0.055 + 0.025 + 0.015 + 0.005)


def test_scaled_changes_only_times():
    out = metrics.scaled({"wall_s": 2.0, "edges_kept": 10.0, "label.bm_s": 1.0}, 0.5)
    assert out == {"wall_s": 1.0, "edges_kept": 10.0, "label.bm_s": 0.5}


def test_speed_factor_is_the_reference_over_the_fastest_burst():
    ref = calibrate.REFERENCE_S
    assert calibrate.speed_factor([2 * ref, ref, 3 * ref]) == pytest.approx(1.0)
    # A run whose fastest burst took twice the reference ran at half speed.
    assert calibrate.speed_factor([2 * ref, 4 * ref]) == pytest.approx(0.5)


def test_harness_overhead(suite):
    records, _ = suite
    out = metrics.harness(records, 4.0, 2)
    busy = (100 + 300 + 50 + 1500 + 20 + 40 + 10 + 30) / 1000.0
    assert out["harness.cells"] == 5  # per round
    assert out["harness.overhead_s"] == pytest.approx((4.0 - busy) / 2)
    assert out["harness.overhead_ms_per_cell"] == pytest.approx((4.0 - busy) * 100.0)


def spans():
    """cell > growth(start 2, kept 6) > 4 verdicts, the first the start check;
    cell > exact(3 nodes) > witness > 2 verdicts, plus 1 verdict directly."""
    return [
        Span("cell", 0.0, 10.0, -1),
        Span("growth", 0.0, 4.0, 0, (2, 6)),
        Span("engine.verdict", 0.0, 0.5, 1, (2, True)),
        Span("engine.verdict", 1.0, 1.5, 1, (3, True)),
        Span("engine.verdict", 2.0, 2.5, 1, (3, False)),
        Span("engine.verdict", 3.0, 3.5, 1, (4, True)),
        Span("exact", 5.0, 9.0, 0, (3,)),
        Span("exact.witness", 5.0, 7.0, 6),
        Span("engine.verdict", 5.0, 6.0, 7, (9, False)),
        Span("engine.verdict", 6.0, 7.0, 7, (8, True)),
        Span("engine.verdict", 8.0, 9.0, 6, (10, True)),
        Span("", 9.0, 9.5, 0),  # an engine call in skip mode: not a verdict
    ]


def test_per_layer_growth_and_exact():
    out = metrics.per_layer(spans(), set())
    assert out["engine.verdict_calls"] == 7
    assert out["engine.verdict_s"] == pytest.approx(5.0)
    assert out["engine.verdict_planar_share"] == pytest.approx(5 / 7)
    assert out["growth.tests"] == 3  # the start check is not a test
    assert out["growth.accepts"] == 2 and out["growth.rejects"] == 1
    assert out["growth.free_accepts"] == 6 - 2 - 2
    assert out["growth.engine_share"] == pytest.approx(2.0 / 4.0)
    assert out["growth.tests_per_s"] == pytest.approx(3 / 4.0)
    assert out["exact.nodes"] == 3 and out["exact.witnesses"] == 1
    assert out["exact.tests_per_witness"] == 2
    assert out["exact.engine_calls_per_node"] == pytest.approx(3 / 3)
    assert out["exact.witness_s"] == pytest.approx(2.0)


def test_absent_layer_is_left_out_not_zero():
    out = metrics.per_layer(spans(), {"exact.witness", "planarize.face_trace"})
    assert "exact.witnesses" not in out and "exact.tests_per_witness" not in out
    assert "planarize.face_trace_s" not in out and "planarize.face_trace_share" not in out
    assert out["exact.nodes"] == 3 and "planarize.s" in out


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == metrics.E2E_UNITS
    assert layer == metrics.LAYER_METRICS
