"""Benchmark harness: run algorithm x instance x seed grids with per-run
wall-clock timeouts, aggregate relative-to-best statistics, emit CSV and
plot-ready series files.

Each cell runs in its own worker process so that a wall-clock timeout can
terminate it; results are collected and sorted, so the output is independent
of scheduling order.  Runtime is measured around the algorithm call inside
the worker, excluding instance parsing or generation.
"""

from __future__ import annotations

import csv
import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .exact import exact_skewness
from .generate import GeneratorSpec
from .graph import Graph
from .graphio import read_graph
from .heuristics import cactus_plus, run_algorithm
from .planarize import insert_edges_fixed

CSV_HEADER = "instance,set,n,m,algorithm,seed,edges_kept,density,runtime_ms,status,crossings"

WORKERS_ENV = "MAXPLANAR_WORKERS"


@dataclass(frozen=True)
class InstanceRef:
    """One benchmark instance: a file path, a generator spec, or a graph."""

    instance_id: str
    set_label: str
    path: str | None = None
    spec: GeneratorSpec | None = None
    graph: Graph | None = None
    file_format: str | None = None  # None: detect from the extension

    def load(self) -> Graph:
        if self.graph is not None:
            return self.graph
        if self.spec is not None:
            return self.spec.build()
        if self.path is not None:
            return read_graph(self.path, format=self.file_format)
        raise ValueError(f"instance {self.instance_id} has no source")


@dataclass(frozen=True)
class SuiteConfig:
    instances: tuple[InstanceRef, ...]
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    time_limit_ms: float | None = None
    restarts: int = 10
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.time_limit_ms is not None and not self.time_limit_ms > 0:
            raise ValueError(f"time_limit_ms must be positive, got {self.time_limit_ms}")

    def worker_count(self) -> int:
        if self.workers is not None:
            return max(1, self.workers)
        env = os.environ.get(WORKERS_ENV)
        if env:
            return max(1, int(env))
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class BenchmarkRecord:
    instance: str
    set_label: str
    n: int
    m: int
    algorithm: str
    seed: int
    edges_kept: int
    density: float
    runtime_ms: float
    status: str  # ok | timeout | memory | error
    crossings: int | None = None

    def csv_row(self) -> list[str]:
        """The fields under CSV_HEADER; read_records_csv parses them back."""
        cross = "" if self.crossings is None else str(self.crossings)
        return [
            self.instance, self.set_label, str(self.n), str(self.m),
            self.algorithm, str(self.seed), str(self.edges_kept),
            f"{self.density:.6f}", f"{self.runtime_ms:.3f}", self.status, cross,
        ]


def run_cell(
    ref: InstanceRef,
    algorithm: str,
    seed: int,
    time_limit_ms: float | None,
    restarts: int,
    on_size: Callable[[int, int], None] | None = None,
) -> BenchmarkRecord:
    """Run one (instance, algorithm, seed) cell in-process.

    `on_size(n, m)` is called once the instance is loaded, before the
    algorithm starts.
    """
    n = m = 0  # until the instance has loaded

    def record(
        status: str, kept: int = 0, ms: float = 0.0, crossings: int | None = None
    ) -> BenchmarkRecord:
        return BenchmarkRecord(
            ref.instance_id, ref.set_label, n, m, algorithm, seed,
            kept, kept / n if n else 0.0, ms, status, crossings,
        )

    try:
        g = ref.load()
    except Exception:
        return record("error")
    n, m = g.vertex_count, len(g.edges)
    if on_size is not None:
        on_size(n, m)
    try:
        if algorithm == "exact":
            limit = time_limit_ms if time_limit_ms is not None else 60_000.0
            t0 = time.perf_counter()
            incumbent = cactus_plus(g, seed).kept
            result = exact_skewness(g, limit, initial_incumbent=incumbent)
            ms = (time.perf_counter() - t0) * 1000.0
            status = "ok" if result.status == "optimal" else "timeout"
            return record(status, len(result.optimal_kept), ms)
        if algorithm.startswith("planarize:"):
            base = algorithm.split(":", 1)[1]
            t0 = time.perf_counter()
            sub = run_algorithm(g, base, seed, restarts)
            planarized = insert_edges_fixed(g, sub, seed)
            ms = (time.perf_counter() - t0) * 1000.0
            return record("ok", len(sub.kept), ms, planarized.dummy_count)
        sub = run_algorithm(g, algorithm, seed, restarts)
        return record("ok", len(sub.kept), sub.runtime_ms)
    except MemoryError:
        return record("memory")
    except Exception:
        return record("error")


def _cell_worker(conn, ref, algorithm, seed, time_limit_ms, restarts) -> None:
    # The size goes first, so a cell killed later still reports its n and m.
    record = run_cell(
        ref, algorithm, seed, time_limit_ms, restarts, lambda n, m: conn.send((n, m))
    )
    conn.send(record)
    conn.close()


def run_suite(config: SuiteConfig) -> list[BenchmarkRecord]:
    """One record per (instance, algorithm, seed), sorted deterministically."""
    cells = [
        (ref, algo, seed)
        for ref in config.instances
        for algo in config.algorithms
        for seed in config.seeds
    ]
    records: list[BenchmarkRecord] = []
    if not cells:
        return records

    workers = config.worker_count()
    ctx = mp.get_context("fork")
    pending = list(reversed(cells))
    running: list[list] = []  # [process, conn, deadline, cell, started, (n, m)]
    limit_s = None if config.time_limit_ms is None else config.time_limit_ms / 1000.0

    def start(cell):
        ref, algo, seed = cell
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_cell_worker,
            args=(child, ref, algo, seed, config.time_limit_ms, config.restarts),
        )
        proc.start()
        child.close()
        now = time.monotonic()
        if limit_s is None:
            deadline = None
        elif algo == "exact":
            # An exact cell manages its own budget; give it headroom to
            # return the incumbent, still within the 2x envelope.
            deadline = now + limit_s * 1.9
        else:
            # Kill within 2x the limit; the floor absorbs process startup,
            # which dominates for sub-second limits.
            deadline = now + max(limit_s * 1.5, limit_s + 0.2)
        running.append([proc, parent, deadline, cell, now, (0, 0)])

    def failed(entry, status: str, ms: float = 0.0) -> BenchmarkRecord:
        (ref, algo, seed), (n, m) = entry[3], entry[5]
        return BenchmarkRecord(
            ref.instance_id, ref.set_label, n, m, algo, seed, 0, 0.0, ms, status
        )

    while pending or running:
        while pending and len(running) < workers:
            start(pending.pop())
        time.sleep(0.005)
        still = []
        for entry in running:
            proc, conn, deadline, _, started, _ = entry
            # Read liveness first: a worker that has exited has written
            # everything it will write, so the drain below sees its record.
            alive = proc.is_alive()
            rec = None
            try:
                while rec is None and conn.poll():
                    msg = conn.recv()
                    if isinstance(msg, BenchmarkRecord):
                        rec = msg
                    else:
                        entry[5] = msg
            except EOFError:  # the worker closed the pipe without a record
                alive = False
            if rec is not None or not alive:
                proc.join()
                conn.close()
                if rec is None:  # SIGKILL is what the kernel's OOM killer sends
                    rec = failed(entry, "memory" if proc.exitcode == -9 else "error")
                records.append(rec)
            elif deadline is not None and time.monotonic() > deadline:
                proc.terminate()
                proc.join()
                conn.close()
                elapsed = (time.monotonic() - started) * 1000.0
                records.append(failed(entry, "timeout", elapsed))
            else:
                still.append(entry)
                continue
        running[:] = still

    records.sort(key=lambda r: (r.set_label, r.instance, r.algorithm, r.seed))
    return records


@dataclass(frozen=True)
class AggregateRow:
    group_key: str
    algorithm: str
    ok_count: int
    timeout_count: int
    rel_min: float
    rel_avg: float
    rel_max: float
    empty: bool = False

    def csv_row(self) -> str:
        if self.empty:
            return f"{self.group_key},{self.algorithm},0,{self.timeout_count},,,"
        return (
            f"{self.group_key},{self.algorithm},{self.ok_count},{self.timeout_count},"
            f"{self.rel_min:.6f},{self.rel_avg:.6f},{self.rel_max:.6f}"
        )


AGG_HEADER = "group,algorithm,ok_count,timeout_count,rel_min,rel_avg,rel_max"


def _metric_value(rec: BenchmarkRecord, metric: str) -> float | None:
    if metric == "density":
        return rec.density
    if metric == "runtime":
        return rec.runtime_ms
    if metric == "crossings":
        return None if rec.crossings is None else float(rec.crossings)
    raise ValueError(f"unknown metric {metric!r}")


def vertex_bucket_10(n: int) -> int:
    return int(round(n / 10.0)) * 10


def aggregate(
    records: list[BenchmarkRecord],
    grouping: str = "vertex_bucket_10",
    metric: str = "density",
) -> list[AggregateRow]:
    """Per-instance relative-to-best values, grouped min/avg/max.

    Best is the largest density or the smallest runtime/crossings among the
    ok records of one (set, instance, seed) cell group; timeout records are
    excluded from the statistics but counted per group.
    """
    by_cell: dict[tuple, list[BenchmarkRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.set_label, rec.instance, rec.seed), []).append(rec)

    rel: dict[tuple[str, str], list[float]] = {}
    timeouts: dict[tuple[str, str], int] = {}
    algorithms = sorted({r.algorithm for r in records})

    def group_of(rec: BenchmarkRecord) -> str:
        if grouping == "vertex_bucket_10":
            return f"{rec.set_label}:{vertex_bucket_10(rec.n)}"
        if grouping == "density_class":
            cls = int(round(rec.m / rec.n)) if rec.n else 0
            return f"{rec.set_label}:{cls}"
        raise ValueError(f"unknown grouping {grouping!r}")

    groups: set[str] = set()
    for cell_records in by_cell.values():
        ok = [r for r in cell_records if r.status == "ok"]
        vals = [(r, _metric_value(r, metric)) for r in ok]
        vals = [(r, v) for r, v in vals if v is not None]
        best: float | None = None
        if vals:
            if metric == "density":
                best = max(v for _, v in vals)
            else:
                best = min(v for _, v in vals)
        for rec in cell_records:
            gk = group_of(rec)
            groups.add(gk)
            key = (gk, rec.algorithm)
            if rec.status != "ok":
                timeouts[key] = timeouts.get(key, 0) + 1
                continue
            v = _metric_value(rec, metric)
            if v is None or best is None:
                continue
            if best == 0:
                r = 1.0 if v == 0 else math.inf
            else:
                r = v / best
            rel.setdefault(key, []).append(r)

    rows: list[AggregateRow] = []
    for gk in sorted(groups):
        for algo in algorithms:
            key = (gk, algo)
            values = rel.get(key, [])
            t = timeouts.get(key, 0)
            if not values:
                rows.append(AggregateRow(gk, algo, 0, t, 0.0, 0.0, 0.0, empty=True))
            else:
                rows.append(
                    AggregateRow(
                        gk,
                        algo,
                        len(values),
                        t,
                        min(values),
                        sum(values) / len(values),
                        max(values),
                    )
                )
    return rows


def emit_records_csv(records: list[BenchmarkRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(r.csv_row() for r in records)


def read_records_csv(path: str | Path) -> list[BenchmarkRecord]:
    """Records from a file written by emit_records_csv.

    A bad header or a malformed row raises ValueError naming `path:line`.
    """
    records: list[BenchmarkRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != CSV_HEADER.split(","):
                raise ValueError("not a records CSV (bad header)")
            for row in reader:
                if not "".join(row).strip():
                    continue
                inst, set_label, n, m, algo, seed, kept, density, ms, status, cross = row
                records.append(BenchmarkRecord(
                    inst, set_label, int(n), int(m), algo, int(seed), int(kept),
                    float(density), float(ms), status, int(cross) if cross else None,
                ))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num or 1}: {exc}") from exc
    return records


def emit_aggregate_csv(rows: list[AggregateRow], path: str | Path) -> None:
    lines = [AGG_HEADER] + [r.csv_row() for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def emit_plot_data(rows: list[AggregateRow], out_dir: str | Path, prefix: str) -> list[Path]:
    """One series file per algorithm: x = group bucket, y = min/avg/max."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    algorithms = sorted({r.algorithm for r in rows})
    for algo in algorithms:
        safe = algo.replace("+", "plus").replace(":", "_")
        p = out / f"{prefix}_{safe}.csv"
        lines = ["x,rel_min,rel_avg,rel_max"]
        for row in rows:
            if row.algorithm != algo or row.empty:
                continue
            x = row.group_key.split(":")[-1]
            lines.append(
                f"{x},{row.rel_min:.6f},{row.rel_avg:.6f},{row.rel_max:.6f}"
            )
        p.write_text("\n".join(lines) + "\n")
        paths.append(p)
    return paths
