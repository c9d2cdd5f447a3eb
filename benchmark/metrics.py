"""Metric arithmetic: end-to-end metrics from the untraced run's records,
per-layer metrics from the traced run's spans.

Records are matched to cells by the benchmark's own instance ids
(`<instance>#r<round>` within a grid's set label), never by the n and m
fields of a record: `bench.run_suite` writes n = m = 0 on timeout and crash
records.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# Label of a record -> per-layer metric that sums its cells' runtime.
LABEL_METRIC = {
    "naive": "label.naive_s",
    "bm": "label.bm_s",
    "bm+": "label.bm_plus_s",
    "cactus": "label.cactus_s",
    "cactus+": "label.cactus_plus_s",
    "exact": "label.exact_s",
}
PLANARIZE_METRIC = "label.planarize_s"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "focus_s": "s",
    "edges_kept": "edges",
    "crossings": "dummies",
    "exact_optimal": "cells",
    "ok_share": "ratio",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> (unit, better).  Work counts are "lower": the same
# result with less work is the better one.
LAYER_METRICS = {
    "label.naive_s": ("s", "lower"),
    "label.bm_s": ("s", "lower"),
    "label.bm_plus_s": ("s", "lower"),
    "label.cactus_s": ("s", "lower"),
    "label.cactus_plus_s": ("s", "lower"),
    "label.planarize_s": ("s", "lower"),
    "label.exact_s": ("s", "lower"),
    "engine.verdict_calls": ("count", "lower"),
    "engine.verdict_s": ("s", "lower"),
    "engine.verdict_us_per_call": ("us", "lower"),
    "engine.verdict_edges_per_s": ("edges/s", "higher"),
    "engine.verdict_planar_share": ("ratio", "higher"),
    "engine.skip_calls": ("count", "lower"),
    "engine.skip_s": ("s", "lower"),
    "engine.skip_edges_per_s": ("edges/s", "higher"),
    "engine.skipped_share": ("ratio", "lower"),
    "growth.calls": ("count", "lower"),
    "growth.s": ("s", "lower"),
    "growth.tests": ("count", "lower"),
    "growth.accepts": ("count", "higher"),
    "growth.rejects": ("count", "lower"),
    "growth.tests_per_s": ("1/s", "higher"),
    "growth.reject_share": ("ratio", "lower"),
    "growth.engine_share": ("ratio", "lower"),
    "growth.free_accepts": ("count", "higher"),
    "cactus.calls": ("count", "lower"),
    "cactus.s": ("s", "lower"),
    "cactus.edges_per_s": ("edges/s", "higher"),
    "lr.calls": ("count", "lower"),
    "lr.s": ("s", "lower"),
    "lr.edges_per_s": ("edges/s", "higher"),
    "planarize.calls": ("count", "lower"),
    "planarize.s": ("s", "lower"),
    "planarize.insertions": ("count", "lower"),
    "planarize.ms_per_insertion": ("ms", "lower"),
    "planarize.crossings_per_insertion": ("ratio", "lower"),
    "planarize.face_trace_calls": ("count", "lower"),
    "planarize.face_trace_s": ("s", "lower"),
    "planarize.face_trace_share": ("ratio", "lower"),
    "exact.calls": ("count", "lower"),
    "exact.s": ("s", "lower"),
    "exact.nodes": ("count", "lower"),
    "exact.nodes_per_s": ("1/s", "higher"),
    "exact.witnesses": ("count", "lower"),
    "exact.witness_s": ("s", "lower"),
    "exact.tests_per_witness": ("ratio", "lower"),
    "exact.engine_calls_per_node": ("ratio", "lower"),
    "exact.bound_s": ("s", "lower"),
    "harness.cells": ("count", "lower"),
    "harness.overhead_s": ("s", "lower"),
    "harness.overhead_ms_per_cell": ("ms", "lower"),
    "generate.s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


@dataclass(frozen=True)
class CellKey:
    """One distinct cell of a grid; its runs in every round share the key."""

    grid: str
    instance: str
    label: str
    seed: int


def split_instance_id(instance_id: str) -> tuple[str, int]:
    base, _, rnd = instance_id.rpartition("#r")
    return base, int(rnd)


def cell_key(record) -> CellKey:
    base, _ = split_instance_id(record.instance)
    return CellKey(record.set_label, base, record.algorithm, record.seed)


def label_metric(label: str) -> str:
    if label.startswith("planarize:"):
        return PLANARIZE_METRIC
    return LABEL_METRIC[label]


def failed_records(
    records: list, expected: list[tuple[CellKey, int]], bad_cells: set[CellKey]
) -> int:
    """Expected (cell, round) runs that have no ok record or whose cell
    failed an output check."""
    ok = {
        (cell_key(r), split_instance_id(r.instance)[1])
        for r in records
        if r.status == "ok"
    }
    return sum(1 for key, rep in expected if (key, rep) not in ok or key in bad_cells)


def ok_cells(records: list) -> dict[CellKey, list]:
    by_cell: dict[CellKey, list] = {}
    for r in records:
        if r.status == "ok":
            by_cell.setdefault(cell_key(r), []).append(r)
    return by_cell


def cell_seconds(recs: list) -> float:
    """A cell's time: the fastest of its ok runs over the rounds."""
    return min(r.runtime_ms for r in recs) / 1000.0


def end_to_end(
    records: list,
    expected: list[tuple[CellKey, int]],
    bad_cells: set[CellKey],
    focus_grids: set[str],
    wall_s: float,
    setup_s: float,
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of one run.

    `focus_s` sums the cell times of the focus grids' distinct cells.  Edge
    and crossing counts are taken once per distinct ok cell.
    """
    out = {name: 0.0 for name in E2E_UNITS}
    out["setup_s"] = setup_s
    out["wall_s"] = wall_s
    out["peak_rss_mb"] = peak_rss_mb
    for key, recs in ok_cells(records).items():
        if key.grid in focus_grids:
            out["focus_s"] += cell_seconds(recs)
        first = min(recs, key=lambda r: r.instance)
        out["edges_kept"] += first.edges_kept
        if first.crossings is not None:
            out["crossings"] += first.crossings
        if key.label == "exact" and key not in bad_cells:
            out["exact_optimal"] += 1
    attempted = len(expected)
    out["ok_share"] = (attempted - failed_records(records, expected, bad_cells)) / attempted
    return out


def wall_time(calls: list[tuple[float, list]]) -> float:
    """Sum over distinct cells of the fastest wall time of a `run_suite`
    call that ran the cell alone; `calls` holds (wall seconds, records)."""
    fastest: dict[CellKey, float] = {}
    for wall_s, records in calls:
        for key in {cell_key(r) for r in records}:
            fastest[key] = min(wall_s, fastest.get(key, wall_s))
    return sum(fastest.values())


def scaled(values: dict[str, float], factor: float) -> dict[str, float]:
    """The same metrics with every time (unit s) multiplied by `factor`."""
    units = {**E2E_UNITS, **{name: unit for name, (unit, _) in LAYER_METRICS.items()}}
    return {k: v * factor if units[k] == "s" else v for k, v in values.items()}


def label_times(records: list) -> dict[str, float]:
    """Per label: the sum of its distinct cells' times (the CSV's timer)."""
    out = {name: 0.0 for name in [*LABEL_METRIC.values(), PLANARIZE_METRIC]}
    for key, recs in ok_cells(records).items():
        out[label_metric(key.label)] += cell_seconds(recs)
    return out


def harness(records: list, wall_s: float, rounds: int) -> dict[str, float]:
    """Cost of the forked harness: suite wall time not spent inside cells,
    per round, from `wall_s`, the raw wall time of every round together."""
    overhead = wall_s - sum(r.runtime_ms for r in records) / 1000.0
    return {
        "harness.cells": len(records) / rounds,
        "harness.overhead_s": overhead / rounds,
        "harness.overhead_ms_per_cell": overhead * 1000.0 / len(records) if records else 0.0,
    }


def trace_overhead_share(records: list, traced: dict) -> float:
    """Traced over untraced time of the cells that are ok in both runs, by
    the program's own per-cell timer (`traced` maps a cell to its record)."""
    cells = {k: recs for k, recs in ok_cells(records).items() if k in traced}
    untraced = sum(cell_seconds(recs) for recs in cells.values())
    return _div(sum(traced[k].runtime_ms for k in cells) / 1000.0, untraced)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(spans: list, absent_layers: set[str]) -> dict[str, float]:
    """Per-layer metrics from the traced run's spans.

    A metric that needs a span name in `absent_layers` (its hook was not
    found in the program) is left out, not reported as zero.
    """
    out: dict[str, float] = {}

    def put(name: str, value: float, *needs: str) -> None:
        if not absent_layers.intersection(needs):
            out[name] = float(value)

    def named(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def seconds(indices: list[int]) -> float:
        return sum(spans[i].seconds for i in indices)

    def has_ancestor(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    V, SKIP, GROW, CACT, LR = "engine.verdict", "engine.skip", "growth", "cactus", "lr"
    PLAN, FACE, EX, WIT, BOUND = (
        "planarize", "planarize.face_trace", "exact", "exact.witness", "exact.bound"
    )

    verdict = named(V)
    verdict_s = seconds(verdict)
    put("engine.verdict_calls", len(verdict), V)
    put("engine.verdict_s", verdict_s, V)
    put("engine.verdict_us_per_call", _div(verdict_s * 1e6, len(verdict)), V)
    put("engine.verdict_edges_per_s", _div(sum(spans[i].info[0] for i in verdict), verdict_s), V)
    put("engine.verdict_planar_share", _div(sum(spans[i].info[1] for i in verdict), len(verdict)), V)

    skip = named(SKIP)
    skip_s = seconds(skip)
    skip_in = sum(spans[i].info[0] for i in skip)
    skip_kept = sum(spans[i].info[1] for i in skip)
    put("engine.skip_calls", len(skip), SKIP)
    put("engine.skip_s", skip_s, SKIP)
    put("engine.skip_edges_per_s", _div(skip_in, skip_s), SKIP)
    put("engine.skipped_share", _div(skip_in - skip_kept, skip_in), SKIP)

    growth = named(GROW)
    growth_s = seconds(growth)
    children: dict[int, list[int]] = {g: [] for g in growth}
    for i in verdict:
        if spans[i].parent in children:
            children[spans[i].parent].append(i)
    tests = accepts = free = 0
    engine_s = 0.0
    for g in growth:
        start_size, kept_size = spans[g].info
        calls = sorted(children[g], key=lambda i: spans[i].start)
        engine_s += seconds(calls)
        if start_size:
            calls = calls[1:]  # the first call checks that the start set is planar
        tests += len(calls)
        acc = sum(1 for i in calls if spans[i].info[1])
        accepts += acc
        free += kept_size - start_size - acc
    put("growth.calls", len(growth), GROW)
    put("growth.s", growth_s, GROW)
    put("growth.tests", tests, GROW, V)
    put("growth.accepts", accepts, GROW, V)
    put("growth.rejects", tests - accepts, GROW, V)
    put("growth.tests_per_s", _div(tests, growth_s), GROW, V)
    put("growth.reject_share", _div(tests - accepts, tests), GROW, V)
    put("growth.engine_share", _div(engine_s, growth_s), GROW, V)
    put("growth.free_accepts", free, GROW, V)

    for name, key in ((CACT, "cactus"), (LR, "lr")):
        idx = named(name)
        s = seconds(idx)
        put(f"{key}.calls", len(idx), name)
        put(f"{key}.s", s, name)
        put(f"{key}.edges_per_s", _div(sum(spans[i].info[0] for i in idx), s), name)

    plan = named(PLAN)
    plan_s = seconds(plan)
    insertions = sum(spans[i].info[0] for i in plan)
    crossings = sum(spans[i].info[1] for i in plan)
    face = named(FACE)
    face_s = seconds(face)
    put("planarize.calls", len(plan), PLAN)
    put("planarize.s", plan_s, PLAN)
    put("planarize.insertions", insertions, PLAN)
    put("planarize.ms_per_insertion", _div(plan_s * 1000.0, insertions), PLAN)
    put("planarize.crossings_per_insertion", _div(crossings, insertions), PLAN)
    put("planarize.face_trace_calls", len(face), FACE)
    put("planarize.face_trace_s", face_s, FACE)
    put("planarize.face_trace_share", _div(face_s, plan_s), FACE, PLAN)

    ex = named(EX)
    ex_s = seconds(ex)
    nodes = sum(spans[i].info[0] for i in ex)
    wit = named(WIT)
    wit_set = set(wit)
    wit_tests = sum(1 for i in verdict if spans[i].parent in wit_set)
    ex_calls = sum(1 for i in verdict if has_ancestor(i, EX))
    put("exact.calls", len(ex), EX)
    put("exact.s", ex_s, EX)
    put("exact.nodes", nodes, EX)
    put("exact.nodes_per_s", _div(nodes, ex_s), EX)
    put("exact.witnesses", len(wit), WIT)
    put("exact.witness_s", seconds(wit), WIT)
    put("exact.tests_per_witness", _div(wit_tests, len(wit)), WIT, V)
    put("exact.engine_calls_per_node", _div(ex_calls, nodes), EX, V)
    put("exact.bound_s", seconds(named(BOUND)), BOUND)

    put("generate.s", seconds(named("generate")), "generate")
    return out
