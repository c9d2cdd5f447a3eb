"""maxplanar benchmark: one workload, one run, one JSON line of metrics.

    python3 benchmark/run.py --workload study --seed 1 --seconds 24 --trace 0

Run from the repository root.  A run has four phases:

1. set-up: build the workload's instance graphs (generate + Graph), seven
   times before the rounds and once after each round; `setup_s` is the
   median;
2. the untraced run, in rounds until `--seconds` are used (see
   workloads.py): in each round, one `bench.run_suite(..., workers=1)`
   call per cell, forked as users run it, with nothing else running.  The
   end-to-end metrics come from its records and wall times: a cell's time
   is its fastest round.  After each grid and each build, never beside a
   timed call, a short burst of a fixed loop (calibrate.py) tracks the
   host's speed, and every time is scaled by it;
3. the traced run: every distinct cell once more, in-process through
   `bench.run_cell`, with spans recorded around the layers' entry points
   (tracing.py); the per-layer metrics come from the spans;
4. the output checks and digest (checks.py), outside every timed region.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  Both sets, every round's wall
time, every cell's runtimes, the digest lines and the hooks found absent
are also written to benchmark/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

if __name__ == "__main__" and not (SRC / "maxplanar" / "__init__.py").is_file():
    sys.exit(f"maxplanar sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402
import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from maxplanar import bench  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_BUILDS = 7  # builds before the first round


@dataclass
class Call:
    """One `run_suite` call of the untraced run."""

    round: int
    wall_s: float
    records: list


@dataclass
class Untraced:
    graphs: dict
    calls: list[Call]
    setups: list[tuple[float, float]]  # (seconds, burst right after) per build
    expected: list[tuple[metrics.CellKey, int]]  # (cell, round) of every planned run
    rounds: int
    peak_rss_mb: float
    bursts: list[float]  # calibration bursts taken between the timed calls

    @property
    def records(self) -> list:
        return [r for c in self.calls for r in c.records]

    def round_walls(self) -> list[float]:
        walls = [0.0] * self.rounds
        for c in self.calls:
            walls[c.round] += c.wall_s
        return walls


def untraced_run(grids: tuple[workloads.Grid, ...], instances: dict, seconds: int) -> Untraced:
    setups: list[tuple[float, float]] = []
    bursts: list[float] = []

    def build() -> dict:
        t0 = time.perf_counter()
        built = {iid: inst.build() for iid, inst in instances.items()}
        elapsed = time.perf_counter() - t0
        bursts.append(calibrate.burst())
        setups.append((elapsed, bursts[-1]))
        return built

    start = time.perf_counter()
    bursts.append(calibrate.burst())
    for _ in range(SETUP_BUILDS):
        graphs = build()
    calls: list[Call] = []
    expected: list[tuple[metrics.CellKey, int]] = []
    round_s: list[float] = []
    while len(round_s) < workloads.MIN_ROUNDS or (
        len(round_s) < workloads.MAX_ROUNDS
        and time.perf_counter() - start + statistics.median(round_s) <= seconds
    ):
        rnd = len(round_s)
        t_round = time.perf_counter()
        for grid in grids:
            for inst in grid.instances:
                iid = inst.instance_id
                ref = bench.InstanceRef(f"{iid}#r{rnd}", grid.name, graph=graphs[iid])
                for label in grid.labels:
                    config = bench.SuiteConfig(
                        instances=(ref,),
                        algorithms=(label,),
                        seeds=(workloads.ALGO_SEED,),
                        time_limit_ms=workloads.TIME_LIMIT_MS,
                        restarts=workloads.RESTARTS,
                        workers=1,
                    )
                    t0 = time.perf_counter()
                    recs = bench.run_suite(config)
                    calls.append(Call(rnd, time.perf_counter() - t0, recs))
                    expected.append(
                        (metrics.CellKey(grid.name, iid, label, workloads.ALGO_SEED), rnd)
                    )
            bursts.append(calibrate.burst())
        build()
        round_s.append(time.perf_counter() - t_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return Untraced(graphs, calls, setups, expected, len(round_s), peak_rss_mb, bursts)


def traced_run(grids: tuple[workloads.Grid, ...], instances: dict, graphs: dict):
    """Every distinct cell once, in-process, under the hooks.

    Returns the tracer, the traced wall time, and per cell its key, graph,
    record and captured results."""
    traced = []
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        for inst in instances.values():
            if inst.spec is not None:
                inst.build()  # generate spans
        for grid in grids:
            for inst in grid.instances:
                g = graphs[inst.instance_id]
                ref = bench.InstanceRef(inst.instance_id, grid.name, graph=g)
                for label in grid.labels:
                    tracer.captured.clear()
                    rec = tracer.span(
                        "cell", bench.run_cell, ref, label, workloads.ALGO_SEED,
                        workloads.TIME_LIMIT_MS, workloads.RESTARTS,
                    )
                    key = metrics.CellKey(grid.name, inst.instance_id, label, workloads.ALGO_SEED)
                    traced.append((key, g, rec, dict(tracer.captured)))
    return tracer, time.perf_counter() - t0, traced


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    grids = workloads.grids(args.workload, args.seed)
    instances = {inst.instance_id: inst for grid in grids for inst in grid.instances}

    run = untraced_run(grids, instances, args.seconds)
    tracer, traced_wall_s, traced = traced_run(grids, instances, run.graphs)

    t0 = time.perf_counter()
    records = run.records
    by_cell: dict[metrics.CellKey, list] = {}
    for r in records:
        by_cell.setdefault(metrics.cell_key(r), []).append(r)
    bad_cells = set()
    problems = []
    digest_lines = []
    for key, g, rec, captured in traced:
        found = checks.check_cell(g, key.label, rec, captured, by_cell.get(key, []))
        if found:
            bad_cells.add(key)
            problems += [f"{key.grid}/{key.instance}/{key.label}: {p}" for p in found]
        digest_lines.append(checks.digest_line(key, key.label, captured))
    digest = checks.digest(digest_lines)
    checks_s = time.perf_counter() - t0

    focus = {grid.name for grid in grids if grid not in workloads.PROBES}
    round_walls = run.round_walls()
    wall_s = metrics.wall_time([(c.wall_s, c.records) for c in run.calls])
    setup_s = statistics.median(elapsed for elapsed, _ in run.setups)
    e2e_raw = metrics.end_to_end(
        records, run.expected, bad_cells, focus, wall_s, setup_s, run.peak_rss_mb
    )
    # Cells run for up to seconds, so they are scaled by the run's speed
    # floor; a build takes milliseconds, so by the burst right after it.
    speed = calibrate.speed_factor(run.bursts)
    e2e = metrics.scaled(e2e_raw, speed)
    e2e["setup_s"] = statistics.median(
        elapsed * calibrate.speed_factor([burst]) for elapsed, burst in run.setups
    )
    layer = metrics.scaled(metrics.label_times(records), speed)
    layer.update(metrics.per_layer(tracer.spans, tracer.absent_layers()))
    layer.update(metrics.harness(records, sum(round_walls), run.rounds))
    layer["trace.overhead_share"] = metrics.trace_overhead_share(
        records, {key: rec for key, _, rec, _ in traced if rec.status == "ok"}
    )
    failed = metrics.failed_records(records, run.expected, bad_cells)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}"
    stem.with_suffix(".digest").write_text("\n".join(sorted(digest_lines)) + "\n")
    cell_ms = {
        f"{k.grid}/{k.instance}/{k.label}": [
            r.runtime_ms for r in sorted(recs, key=lambda r: r.instance)
        ]
        for k, recs in sorted(by_cell.items(), key=lambda kv: str(kv[0]))
    }
    stem.with_suffix(".json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "digest": digest,
                "absent_hooks": tracer.absent,
                "problems": problems,
                "rounds": run.rounds,
                "round_walls": round_walls,
                "setups": run.setups,
                "bursts": run.bursts,
                "speed_factor": speed,
                "cell_ms": cell_ms,
                "end_to_end": e2e,
                "end_to_end_raw": e2e_raw,
                "per_layer": layer,
            },
            indent=1,
        )
        + "\n"
    )

    for p in problems:
        print(f"check failed: {p}")
    if tracer.absent:
        print("absent hooks: " + ", ".join(tracer.absent))
    print(f"digest {digest} ({len(digest_lines)} cells)")
    print(
        f"untraced {run.rounds} rounds, {sum(round_walls):.1f} s in suites, "
        f"traced {traced_wall_s:.1f} s, checks {checks_s:.1f} s"
    )
    print(f"speed factor {speed:.4f} ({len(run.bursts)} bursts); raw times in brackets")
    for name, value in e2e.items():
        print(f"  {name:34s} {value:14.6f} {metrics.E2E_UNITS[name]:8s} [{e2e_raw[name]:.6f}]")
    for name, value in layer.items():
        print(f"  {name:34s} {value:14.6f} {metrics.LAYER_METRICS[name][0]}")

    if args.trace:
        units = {name: unit for name, (unit, _) in metrics.LAYER_METRICS.items()}
        chosen = {name: {"value": v, "unit": units[name]} for name, v in layer.items()}
    else:
        chosen = {name: {"value": v, "unit": metrics.E2E_UNITS[name]} for name, v in e2e.items()}
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(run.expected),
        "failed": failed,
        "metrics": chosen,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
