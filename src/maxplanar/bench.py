"""Benchmark harness: run algorithm x instance x seed grids with per-run
wall-clock timeouts, aggregate relative-to-best statistics, emit CSV and
plot-ready series files.

Each cell runs in a worker process forked for it alone, so that a kill
deadline can terminate it and its peak memory is its own.  The worker
writes the instance size, then its record, down a pipe; the parent polls
the pipes, where EOF without a record means that the worker died.  Records
are sorted, so the output does not depend on scheduling.  Runtime is
measured around the algorithm call inside the worker, excluding instance
parsing or generation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import pickle
import select
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .exact import ExactResult, check_time_limit, exact_skewness
from .generate import GeneratorSpec
from .graph import Graph
from .graphio import ascii_int, make_dir, read_graph, read_text, write_text
from .heuristics import ALGORITHMS, cactus_plus, check_int, run_algorithm
from .planarize import insert_edges_fixed

CSV_HEADER = "instance,set,n,m,algorithm,seed,edges_kept,density,runtime_ms,status,crossings"


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
    workers: int | None = None  # None: one per CPU

    def __post_init__(self) -> None:
        for label in self.algorithms:
            if label != "exact" and label.removeprefix("planarize:") not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {label!r}")
        check_int(self.restarts, "restarts", 1)
        if self.time_limit_ms is not None:
            check_time_limit(self.time_limit_ms)
        if self.workers is not None:
            check_int(self.workers, "workers", 1)
        for seed in self.seeds:
            check_int(seed, "seeds", 0)
        # A repeated key would merge distinct cells in the records and in aggregate().
        instance_keys = [(r.set_label, r.instance_id) for r in self.instances]
        for what, keys in (("(set, instance id)", instance_keys),
                           ("algorithm", self.algorithms), ("seed", self.seeds)):
            repeats = [k for k, count in Counter(keys).items() if count > 1]
            if repeats:
                raise ValueError(f"repeated {what} {repeats[0]!r}")


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


def exact_from_cactus_plus(g: Graph, seed: int, time_limit_ms: float) -> ExactResult:
    """Exact skewness, starting from the cactus+ subgraph as incumbent."""
    check_time_limit(time_limit_ms)  # before the incumbent, which can take seconds
    incumbent = cactus_plus(g, seed).kept
    return exact_skewness(g, time_limit_ms, initial_incumbent=incumbent)


def _cell_record(
    cell: tuple[InstanceRef, str, int],
    size: tuple[int, int],
    status: str,
    kept: int = 0,
    ms: float = 0.0,
    crossings: int | None = None,
) -> BenchmarkRecord:
    """The record of one (instance, algorithm, seed) cell of size (n, m)."""
    (ref, algorithm, seed), (n, m) = cell, size
    return BenchmarkRecord(
        ref.instance_id, ref.set_label, n, m, algorithm, seed,
        kept, kept / n if n else 0.0, ms, status, crossings,
    )


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
    cell = (ref, algorithm, seed)
    size = (0, 0)
    try:
        g = ref.load()
        size = (g.vertex_count, len(g.edges))
        if on_size is not None:
            on_size(*size)
        if algorithm == "exact":
            limit = time_limit_ms if time_limit_ms is not None else 60_000.0
            t0 = time.perf_counter()
            result = exact_from_cactus_plus(g, seed, limit)
            ms = (time.perf_counter() - t0) * 1000.0
            status = "ok" if result.status == "optimal" else "timeout"
            return _cell_record(cell, size, status, len(result.optimal_kept), ms)
        if algorithm.startswith("planarize:"):
            base = algorithm.removeprefix("planarize:")
            t0 = time.perf_counter()
            sub = run_algorithm(g, base, seed, restarts)
            planarized = insert_edges_fixed(g, sub.kept, seed)
            ms = (time.perf_counter() - t0) * 1000.0
            return _cell_record(cell, size, "ok", len(sub.kept), ms, planarized.dummy_count)
        sub = run_algorithm(g, algorithm, seed, restarts)
        return _cell_record(cell, size, "ok", len(sub.kept), sub.runtime_ms)
    except MemoryError:
        return _cell_record(cell, size, "memory")
    except Exception:
        return _cell_record(cell, size, "error")


def _run_worker(write_fd: int, *args) -> None:
    """Run one cell in a forked worker: write the cell's size (n, m), then its
    record, each pickled in one write, and leave by os._exit whatever happens."""
    try:
        def send(msg) -> None:  # a record is far below PIPE_BUF, so one write is whole
            os.write(write_fd, pickle.dumps(msg))

        # The size goes first, so a cell killed later still reports its n and m.
        send(run_cell(*args, lambda n, m: send((n, m))))
        os._exit(0)
    finally:
        os._exit(1)  # never return into the caller's stack, whatever was raised


def run_suite(config: SuiteConfig) -> list[BenchmarkRecord]:
    """One record per (instance, algorithm, seed), sorted deterministically.

    An exception that stops the suite, such as KeyboardInterrupt, first
    kills and reaps every running worker.
    """
    workers = config.workers or os.cpu_count() or 1
    pending = list(itertools.product(config.instances, config.algorithms, config.seeds))[::-1]
    running: dict = {}  # read fd -> [pid, deadline, cell, started, bytes read]
    poller = select.poll()
    records: list[BenchmarkRecord] = []
    limit_s = math.inf if config.time_limit_ms is None else config.time_limit_ms / 1000.0

    def start(cell):
        read_fd, write_fd = os.pipe()
        sys.stdout.flush()  # else the worker could write out again what is buffered here
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _run_worker(write_fd, *cell, config.time_limit_ms, config.restarts)
        os.close(write_fd)  # so the pipe reads EOF once the worker exits
        now = time.monotonic()
        if cell[1] == "exact":
            # An exact cell manages its own budget; give it headroom to
            # return the incumbent, still within the 2x envelope.
            deadline = now + limit_s * 1.9
        else:
            # Kill within 2x the limit; the floor absorbs process startup,
            # which dominates for sub-second limits.
            deadline = now + max(limit_s * 1.5, limit_s + 0.2)
        poller.register(read_fd, select.POLLIN)
        running[read_fd] = [pid, deadline, cell, now, b""]

    def finish(fd, timed_out_at=None):
        pid, _, cell, started, data = running[fd]
        if timed_out_at is not None:
            os.kill(pid, signal.SIGTERM)
        exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del running[fd]
        poller.unregister(fd)
        os.close(fd)
        stream, messages = io.BytesIO(data), []
        with contextlib.suppress(EOFError, pickle.UnpicklingError):  # a message cut by a kill
            while stream.tell() < len(data):
                messages.append(pickle.load(stream))
        size = next((msg for msg in messages if isinstance(msg, tuple)), (0, 0))
        rec = next((msg for msg in messages if isinstance(msg, BenchmarkRecord)), None)
        if timed_out_at is not None:
            rec = _cell_record(cell, size, "timeout", ms=(timed_out_at - started) * 1e3)
        elif rec is None:  # SIGKILL is what the kernel's OOM killer sends
            rec = _cell_record(cell, size, "memory" if exit_code == -signal.SIGKILL else "error")
        records.append(rec)

    try:
        while pending or running:
            while pending and len(running) < workers:
                start(pending.pop())
            deadline = min(e[1] for e in running.values())
            # At most an hour: poll() takes a C int of milliseconds, and the
            # loop re-checks a far or infinite deadline anyway.
            ready = poller.poll(min(max(deadline - time.monotonic(), 0.0), 3600.0) * 1e3)
            now = time.monotonic()  # what is not ready by now came after any passed deadline
            for fd, _ in ready:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    running[fd][4] += chunk
                else:  # EOF: the worker has exited
                    finish(fd)
            for fd, (_, deadline, *_) in list(running.items()):
                if now >= deadline:
                    finish(fd, now)
    finally:
        for fd, (pid, *_) in running.items():
            with contextlib.suppress(OSError):  # already reaped, if stopped inside finish
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)

    records.sort(key=lambda r: (r.set_label, r.instance, r.algorithm, r.seed))
    return records


@dataclass(frozen=True)
class AggregateRow:
    group_key: str
    algorithm: str
    ok_count: int
    timeout_count: int
    rel_min: float = 0.0
    rel_avg: float = 0.0
    rel_max: float = 0.0

    def csv_row(self) -> list[str]:
        """The fields under AGG_HEADER; a row without ok values leaves the statistics blank."""
        head = [self.group_key, self.algorithm, str(self.ok_count), str(self.timeout_count)]
        if not self.ok_count:
            return head + ["", "", ""]
        return head + [f"{v:.6f}" for v in (self.rel_min, self.rel_avg, self.rel_max)]


AGG_HEADER = "group,algorithm,ok_count,timeout_count,rel_min,rel_avg,rel_max"


def vertex_bucket_10(n: int) -> int:
    """n rounded to the nearest multiple of 10, halves up."""
    return (n + 5) // 10 * 10


def aggregate(
    records: list[BenchmarkRecord],
    grouping: str = "vertex_bucket_10",
    metric: str = "density",
) -> list[AggregateRow]:
    """Per-instance relative-to-best values, grouped min/avg/max.

    Best is the largest density or the smallest runtime/crossings among the
    ok records of one (set, instance, seed) cell group.  An ok record with a
    value enters the statistics; a timeout record is only counted.  Error
    and memory records are in neither, but still give their group its rows.
    """
    if grouping not in ("vertex_bucket_10", "density_class"):
        raise ValueError(f"unknown grouping {grouping!r}")
    field = {"density": "density", "runtime": "runtime_ms", "crossings": "crossings"}.get(metric)
    if field is None:
        raise ValueError(f"unknown metric {metric!r}")
    pick = max if metric == "density" else min

    best: dict[tuple[str, str, int], float] = {}
    for rec in records:
        v = getattr(rec, field)
        if rec.status == "ok" and v is not None:
            cell = (rec.set_label, rec.instance, rec.seed)
            best[cell] = pick(best.get(cell, v), v)

    rel: dict[tuple[str, str], list[float]] = {}  # every record's key, even without values
    timeouts: Counter[tuple[str, str]] = Counter()
    for rec in records:
        if grouping == "vertex_bucket_10":
            cls = vertex_bucket_10(rec.n)
        else:
            cls = (2 * rec.m + rec.n) // (2 * rec.n) if rec.n else 0  # m/n, halves up
        key = (f"{rec.set_label}:{cls}", rec.algorithm)
        values = rel.setdefault(key, [])
        v = getattr(rec, field)
        if rec.status == "timeout":
            timeouts[key] += 1
        elif rec.status == "ok" and v is not None:
            b = best[(rec.set_label, rec.instance, rec.seed)]
            if b:
                values.append(v / b)
            else:  # only a 0 ties a best of 0
                values.append(1.0 if v == 0 else math.inf)

    algorithms = sorted({r.algorithm for r in records})
    rows: list[AggregateRow] = []
    for gk in sorted({gk for gk, _ in rel}):
        for algo in algorithms:
            values = rel.get((gk, algo), [])
            stats = (min(values), sum(values) / len(values), max(values)) if values else ()
            rows.append(AggregateRow(gk, algo, len(values), timeouts[gk, algo], *stats))
    return rows


def _write_csv(path: str | Path, header: str, rows: Iterable[list[str]]) -> None:
    """Header and rows through one csv.writer: fields are quoted only when needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def emit_records_csv(records: list[BenchmarkRecord], path: str | Path) -> None:
    _write_csv(path, CSV_HEADER, (r.csv_row() for r in records))


def read_records_csv(path: str | Path) -> list[BenchmarkRecord]:
    """Records from a file written by emit_records_csv.

    A bad header or row, or a repeated (set, instance, algorithm, seed) cell,
    raises ValueError naming `path:line`; an unreadable path one naming it.
    """
    records: list[BenchmarkRecord] = []
    cells: set[tuple[str, str, str, int]] = set()
    reader = csv.reader(read_text(path).splitlines())
    try:
        if next(reader, None) != CSV_HEADER.split(","):
            raise ValueError("not a records CSV (bad header)")
        for row in reader:
            if not "".join(row).strip():
                continue
            inst, set_label, n, m, algo, seed, kept, density, ms, status, cross = row
            if status not in ("ok", "timeout", "memory", "error"):
                raise ValueError(f"unknown status {status!r}")
            n, m, seed, kept = (ascii_int(x) for x in (n, m, seed, kept))
            crossings = ascii_int(cross) if cross else None
            density, ms = float(density), float(ms)
            if not all(0 <= x < math.inf for x in (n, m, seed, kept, crossings or 0, density, ms)):
                raise ValueError("a count, seed, density or runtime is negative or not finite")
            records.append(BenchmarkRecord(
                inst, set_label, n, m, algo, seed, kept, density, ms, status, crossings))
            cell = (set_label, inst, algo, seed)
            if cell in cells:
                raise ValueError(f"repeated (set, instance, algorithm, seed) {cell!r}")
            cells.add(cell)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}:{reader.line_num or 1}: {exc}") from exc
    return records


def emit_aggregate_csv(rows: list[AggregateRow], path: str | Path) -> None:
    _write_csv(path, AGG_HEADER, (r.csv_row() for r in rows))


def emit_plot_data(rows: list[AggregateRow], out_dir: str | Path, prefix: str) -> list[Path]:
    """One series file per algorithm: set label, x = group bucket, y = min/avg/max."""
    out = make_dir(out_dir)
    paths: list[Path] = []
    algorithms = sorted({r.algorithm for r in rows})
    for algo in algorithms:
        safe = algo.replace("+", "plus").replace(":", "_")
        p = out / f"{prefix}_{safe}.csv"
        _write_csv(p, "set,x,rel_min,rel_avg,rel_max", (
            row.group_key.rsplit(":", 1) + row.csv_row()[-3:]
            for row in rows if row.algorithm == algo and row.ok_count
        ))
        paths.append(p)
    return paths
