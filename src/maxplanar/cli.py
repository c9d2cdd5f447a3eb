"""Command-line harness.

Subcommands: gen, run, aggregate, exact, planarize, export-ilp.
Exit codes: 0 on success, 2 when a suite finished with error/timeout
records (a `run` instance that fails to load is one), 1 on any other input
error: a usage error, a bad setting, a missing or malformed file, or an
output path that cannot be written.  That error is reported as one
`error: ...` line on stderr.  The library raises every input error as a
ValueError, and so does the argument parser; `main` is the one place that
reports it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .bench import (
    InstanceRef,
    SuiteConfig,
    aggregate,
    emit_aggregate_csv,
    emit_plot_data,
    emit_records_csv,
    exact_from_cactus_plus,
    read_records_csv,
    run_suite,
)
from .exact import DEFAULT_TIME_LIMIT_MS, check_time_limit, exact_skewness, export_ilp
from .generate import GeneratorSpec
from .graphio import (ascii_int, claim_output, detect_format, make_dir, read_graph,
                      write_graph, write_subgraph, write_text)
from .heuristics import ALGORITHMS, DEFAULT_RESTARTS, check_int, run_algorithm
from .planarize import insert_edges_fixed


def _parse_seeds(text: str) -> list[int]:
    """"0,1,2" or "0:20" (half-open range) or a single integer."""
    out: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" in part:
                lo, hi = part.split(":", 1)
                out.extend(range(ascii_int(lo), ascii_int(hi)))
            else:
                out.append(ascii_int(part))
    except ValueError as exc:
        raise ValueError(f"bad seeds {text!r}: {exc}") from exc
    if not out:
        raise ValueError(f"no seeds in {text!r}")
    return out


def _parse_gen_spec(text: str) -> GeneratorSpec:
    """"regular:n=100,density=3,seed=5" -> GeneratorSpec."""
    try:
        family, rest = text.split(":", 1)
        kv: dict[str, str] = {}
        for item in rest.split(","):
            key, value = item.split("=", 1)
            if key not in ("n", "density", "seed"):
                raise ValueError(f"unknown key {key!r}")
            if key in kv:
                raise ValueError(f"repeated key {key!r}")
            kv[key] = value
        return GeneratorSpec(
            family=family.strip().replace("-", "_"),
            n=ascii_int(kv["n"]),
            density=ascii_int(kv["density"]),
            seed=ascii_int(kv.get("seed", "0")),
        )
    except (ValueError, KeyError) as exc:  # a KeyError is a missing n= or density=
        raise ValueError(f"bad generator spec {text!r}: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    family = args.family.replace("-", "_")
    specs = [GeneratorSpec(family, args.n, args.density, s) for s in _parse_seeds(args.seeds)]
    out = make_dir(args.out)
    for spec in specs:
        g = spec.build()
        path = out / f"{spec.label()}.el"
        write_graph(g, path)
        print(f"wrote {path} (n={g.vertex_count}, m={len(g.edges)})")
    return 0


def _instances_from_args(args: argparse.Namespace) -> list[InstanceRef]:
    refs = [
        InstanceRef(Path(path).stem, args.set_label, path=path, file_format=args.format)
        for path in args.instances or []
    ]
    for text in args.gen or []:
        spec = _parse_gen_spec(text)
        refs.append(InstanceRef(spec.label(), spec.family, spec=spec))
    if not refs:
        raise ValueError("no instances: pass --instances and/or --gen")
    return refs


def _cmd_run(args: argparse.Namespace) -> int:
    config = SuiteConfig(
        instances=tuple(_instances_from_args(args)),
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        seeds=tuple(_parse_seeds(args.seeds)),
        time_limit_ms=args.time_limit_ms,
        restarts=args.restarts,
        workers=args.workers,
    )
    if not config.algorithms:
        raise ValueError(f"no algorithms in {args.algorithms!r}")
    claim_output(args.out)  # an unwritable path fails before any cell runs
    records = run_suite(config)
    emit_records_csv(records, args.out)
    bad = sum(1 for r in records if r.status != "ok")
    print(f"{len(records)} records -> {args.out} ({bad} not ok)")
    return 2 if bad else 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    records = read_records_csv(args.records)
    rows = aggregate(records, grouping=args.grouping, metric=args.metric)
    if args.plot_dir:  # both outputs before writing either
        make_dir(args.plot_dir)
    claim_output(args.out)
    emit_aggregate_csv(rows, args.out)
    print(f"{len(rows)} aggregate rows -> {args.out}")
    if args.plot_dir:
        paths = emit_plot_data(rows, args.plot_dir, args.prefix)
        print(f"plot series: {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = read_graph(args.instance)
    check_time_limit(args.time_limit_ms)  # the settings, then --out, before the search
    check_int(args.seed, "seed", 0)
    if args.out:
        detect_format(args.out)
        claim_output(args.out)
    if args.no_incumbent:
        result = exact_skewness(g, args.time_limit_ms)
    else:
        result = exact_from_cactus_plus(g, args.seed, args.time_limit_ms)
    print(
        f"skewness={result.skewness} kept={len(result.optimal_kept)} "
        f"status={result.status} nodes={result.nodes_explored} "
        f"bound={result.lower_bound} constraints={len(result.constraint_pool)}"
    )
    if args.out:
        write_subgraph(g, result.optimal_kept, args.out)
        print(f"kept edges -> {args.out}")
    return 0


def _cmd_planarize(args: argparse.Namespace) -> int:
    g = read_graph(args.instance)
    check_int(args.restarts, "restarts", 1)  # the settings, then --out, before the work
    check_int(args.seed, "seed", 0)
    if args.out:
        detect_format(args.out)
        claim_output(args.out)
    sub = run_algorithm(g, args.algorithm, args.seed, args.restarts)
    planarized = insert_edges_fixed(g, sub.kept, args.seed, shuffle=(args.order == "random"))
    print(
        f"subgraph={args.algorithm} kept={len(sub.kept)}/{len(g.edges)} "
        f"crossings={planarized.dummy_count}"
    )
    if args.out:
        write_graph(planarized.host, args.out)
        print(f"planarized host -> {args.out}")
    return 0


def _cmd_export_ilp(args: argparse.Namespace) -> int:
    g = read_graph(args.instance)
    check_time_limit(args.time_limit_ms)  # the settings, then --out, before the search
    check_int(args.seed, "seed", 0)
    claim_output(args.out)
    result = exact_from_cactus_plus(g, args.seed, args.time_limit_ms)
    text = export_ilp(g, result.constraint_pool)
    write_text(args.out, text)
    print(
        f"model with {len(g.edges)} binaries and "
        f"{len(result.constraint_pool)} constraints -> {args.out}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, for `main` to report."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxplanar",
        description="Maximum planar subgraph algorithms and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances to .el files")
    p.add_argument("--family", choices=["regular", "scale-free", "scale_free"], required=True)
    p.add_argument("--n", type=ascii_int, required=True)
    p.add_argument("--density", type=ascii_int, required=True)
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
    p.add_argument("--restarts", type=ascii_int, default=DEFAULT_RESTARTS)
    p.add_argument("--workers", type=ascii_int, default=None)
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
    p.add_argument("--time-limit-ms", type=float, default=DEFAULT_TIME_LIMIT_MS)
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--no-incumbent", action="store_true")
    p.add_argument("--out", default=None, help="write kept edges as .el")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("planarize", help="subgraph + fixed-embedding insertion")
    p.add_argument("instance")
    p.add_argument("--algorithm", choices=list(ALGORITHMS), default="cactus+")
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--restarts", type=ascii_int, default=DEFAULT_RESTARTS)
    p.add_argument("--order", choices=["random", "id"], default="random")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_planarize)

    p = sub.add_parser("export-ilp", help="emit an LP model with the exact solver's constraint pool")
    p.add_argument("instance")
    p.add_argument("--time-limit-ms", type=float, default=5_000.0)
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_ilp)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
