"""Command-line harness.

Subcommands: gen, run, aggregate, exact, planarize, export-ilp.
Exit codes: 0 on success, 2 when a suite finished with error/timeout
records, 1 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    InstanceRef,
    SuiteConfig,
    aggregate,
    emit_aggregate_csv,
    emit_plot_data,
    emit_records_csv,
    read_records_csv,
    run_suite,
)
from .exact import exact_skewness, export_ilp
from .generate import GeneratorSpec
from .graphio import read_graph, write_graph, write_subgraph
from .heuristics import ALGORITHMS, cactus_plus, run_algorithm
from .planarize import insert_edges_fixed


class ConfigError(ValueError):
    pass


def _parse_seeds(text: str) -> list[int]:
    """"0,1,2" or "0:20" (half-open range) or a single integer."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            out.extend(range(int(lo), int(hi)))
        else:
            out.append(int(part))
    if not out:
        raise ConfigError(f"no seeds in {text!r}")
    return out


def _parse_gen_spec(text: str) -> GeneratorSpec:
    """"regular:n=100,density=3,seed=5" -> GeneratorSpec."""
    try:
        family, rest = text.split(":", 1)
        kv = dict(item.split("=", 1) for item in rest.split(","))
        return GeneratorSpec(
            family=family.strip().replace("-", "_"),
            n=int(kv["n"]),
            density=int(kv["density"]),
            seed=int(kv.get("seed", 0)),
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad generator spec {text!r}: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = _parse_seeds(args.seeds)
    for seed in seeds:
        spec = GeneratorSpec(
            family=args.family.replace("-", "_"),
            n=args.n,
            density=args.density,
            seed=seed,
        )
        g = spec.build()
        path = out / f"{spec.label()}.el"
        write_graph(g, path)
        print(f"wrote {path} (n={g.vertex_count}, m={len(g.edges)})")
    return 0


def _instances_from_args(args: argparse.Namespace) -> list[InstanceRef]:
    refs: list[InstanceRef] = []
    for path in args.instances or []:
        p = Path(path)
        refs.append(
            InstanceRef(
                instance_id=p.stem,
                set_label=args.set_label,
                path=str(p),
                file_format=args.format,
            )
        )
    for text in args.gen or []:
        spec = _parse_gen_spec(text)
        refs.append(
            InstanceRef(instance_id=spec.label(), set_label=spec.family, spec=spec)
        )
    if not refs:
        raise ConfigError("no instances: pass --instances and/or --gen")
    return refs


def _cmd_run(args: argparse.Namespace) -> int:
    refs = _instances_from_args(args)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    valid = set(ALGORITHMS) | {"exact"}
    for a in algorithms:
        base = a.split(":", 1)[1] if a.startswith("planarize:") else a
        if base not in valid:
            raise ConfigError(f"unknown algorithm {a!r}")
    try:
        config = SuiteConfig(
            instances=tuple(refs),
            algorithms=tuple(algorithms),
            seeds=tuple(_parse_seeds(args.seeds)),
            time_limit_ms=args.time_limit_ms,
            restarts=args.restarts,
            workers=args.workers,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    records = run_suite(config)
    emit_records_csv(records, args.out)
    bad = sum(1 for r in records if r.status != "ok")
    print(f"{len(records)} records -> {args.out} ({bad} not ok)")
    return 2 if bad else 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    try:
        records = read_records_csv(args.records)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = aggregate(records, grouping=args.grouping, metric=args.metric)
    emit_aggregate_csv(rows, args.out)
    print(f"{len(rows)} aggregate rows -> {args.out}")
    if args.plot_dir:
        paths = emit_plot_data(rows, args.plot_dir, args.prefix)
        print(f"plot series: {', '.join(str(p) for p in paths)}")
    return 0


def _check_time_limit(ms: float) -> None:
    if not ms > 0:
        raise ConfigError(f"time_limit_ms must be positive, got {ms}")


def _cmd_exact(args: argparse.Namespace) -> int:
    _check_time_limit(args.time_limit_ms)
    g = read_graph(args.instance)
    incumbent = None
    if not args.no_incumbent:
        incumbent = cactus_plus(g, args.seed).kept
    result = exact_skewness(g, args.time_limit_ms, initial_incumbent=incumbent)
    print(
        f"skewness={result.skewness} kept={len(result.optimal_kept)} "
        f"status={result.status} nodes={result.nodes_explored} "
        f"constraints={len(result.constraint_pool)}"
    )
    if args.out:
        write_subgraph(g, result.optimal_kept, args.out)
        print(f"kept edges -> {args.out}")
    return 0


def _cmd_planarize(args: argparse.Namespace) -> int:
    if args.restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {args.restarts}")
    g = read_graph(args.instance)
    sub = run_algorithm(g, args.algorithm, args.seed, args.restarts)
    planarized = insert_edges_fixed(
        g, sub, args.seed, shuffle=(args.order == "random")
    )
    print(
        f"subgraph={args.algorithm} kept={len(sub.kept)}/{len(g.edges)} "
        f"crossings={planarized.dummy_count}"
    )
    if args.out:
        write_graph(planarized.host, args.out)
        print(f"planarized host -> {args.out}")
    return 0


def _cmd_export_ilp(args: argparse.Namespace) -> int:
    _check_time_limit(args.time_limit_ms)
    g = read_graph(args.instance)
    incumbent = cactus_plus(g, args.seed).kept
    result = exact_skewness(g, args.time_limit_ms, initial_incumbent=incumbent)
    text = export_ilp(g, result.constraint_pool)
    Path(args.out).write_text(text)
    print(
        f"model with {len(g.edges)} binaries and "
        f"{len(result.constraint_pool)} constraints -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxplanar",
        description="Maximum planar subgraph algorithms and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances to .el files")
    p.add_argument("--family", choices=["regular", "scale-free", "scale_free"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=int, required=True)
    p.add_argument("--seeds", default="0", help="e.g. 0,1,2 or 0:20")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run an algorithm x instance x seed suite")
    p.add_argument("--instances", nargs="*", help="graph files (.el/.gml)")
    p.add_argument("--gen", action="append", help="inline spec: regular:n=100,density=3,seed=0")
    p.add_argument("--set-label", default="files")
    p.add_argument("--format", choices=["edge_list", "gml_subset"], default=None,
                   help="override the extension-based format detection")
    p.add_argument("--algorithms", required=True,
                   help="comma list of naive,bm,bm+,cactus,cactus+,exact,planarize:<algo>")
    p.add_argument("--seeds", default="0")
    p.add_argument("--time-limit-ms", type=float, default=None)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("aggregate", help="relative-to-best statistics from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--grouping", choices=["vertex_bucket_10", "density_class"],
                   default="vertex_bucket_10")
    p.add_argument("--metric", choices=["density", "runtime", "crossings"],
                   default="density")
    p.add_argument("--out", required=True)
    p.add_argument("--plot-dir", default=None)
    p.add_argument("--prefix", default="series")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("exact", help="exact skewness of one instance")
    p.add_argument("instance")
    p.add_argument("--time-limit-ms", type=float, default=60_000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-incumbent", action="store_true")
    p.add_argument("--out", default=None, help="write kept edges as .el")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("planarize", help="subgraph + fixed-embedding insertion")
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default="cactus+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--order", choices=["random", "id"], default="random")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_planarize)

    p = sub.add_parser("export-ilp", help="emit an LP model with the exact solver's constraint pool")
    p.add_argument("instance")
    p.add_argument("--time-limit-ms", type=float, default=5_000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_ilp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
