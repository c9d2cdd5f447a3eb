"""The benchmark's workloads: which instances run which algorithm labels.

A workload is a list of grids (instances x labels).  A run is made of
rounds, and every cell runs once per round, through its own
`bench.run_suite` call.  Rounds go on until the run's time is used, with
at least MIN_ROUNDS and at most MAX_ROUNDS of them, and a cell's time is
its fastest round: on a shared host the CPU speed can drop by tens of
percent for seconds at a time, and the fastest round keeps those slow
stretches out of the figures.

Every workload runs its own focus grids plus the same three small probe
grids.  The probes run every label on fixed instances, so that every
end-to-end and per-layer metric is measured, and non-zero, on every
workload; the focus grids decide which layer does most of the work.

Random instances come from the workload seed; fixed instances (K7 and the
probe graphs) do not depend on it.  The algorithm seed is always 0: the
program receives only the generated graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from maxplanar.generate import GeneratorSpec
from maxplanar.graph import Graph

ALGO_SEED = 0
RESTARTS = 2  # multi-start naive: restarts per cell
TIME_LIMIT_MS = 30_000.0  # every cell finishes in a few seconds; this is a safety net
MIN_ROUNDS = 3
MAX_ROUNDS = 16


@dataclass(frozen=True)
class Instance:
    """One instance graph: a generator spec or a fixed named graph."""

    instance_id: str
    spec: GeneratorSpec | None = None
    fixed_n: int = 0
    fixed_edges: tuple[tuple[int, int], ...] = ()

    def build(self) -> Graph:
        if self.spec is not None:
            return self.spec.build()
        return Graph(self.fixed_n, self.fixed_edges)


@dataclass(frozen=True)
class Grid:
    name: str  # used as the records' set label
    instances: tuple[Instance, ...]
    labels: tuple[str, ...]


def generated(family: str, n: int, density: int, seed: int) -> Instance:
    spec = GeneratorSpec(family, n, density, seed)
    return Instance(spec.label(), spec=spec)


def complete(n: int) -> Instance:
    return Instance(f"K{n}", fixed_n=n, fixed_edges=tuple(itertools.combinations(range(n), 2)))


HEURISTICS = ("naive", "bm", "bm+", "cactus", "cactus+")
PLANARIZE = ("planarize:bm", "planarize:cactus", "planarize:cactus+")

PROBES = (
    Grid(
        "probe-onepass",
        (generated("regular", 300, 5, 0), generated("scale_free", 300, 5, 0)),
        ("bm", "cactus"),
    ),
    Grid("probe-growth", (generated("regular", 40, 3, 0),), ("naive", "bm+", "cactus+") + PLANARIZE),
    Grid("probe-exact", (generated("regular", 10, 2, 0),), ("exact",)),
)


def _instance_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + i for i in range(count)]


def study(seed: int) -> tuple[Grid, ...]:
    insts = [
        generated(family, 100, 5, s)
        for s in _instance_seeds(seed, 2)
        for family in ("regular", "scale_free")
    ]
    return (Grid("study", tuple(insts), HEURISTICS),)


def onepass(seed: int) -> tuple[Grid, ...]:
    insts = [
        generated(family, 1000, d, s)
        for s in _instance_seeds(seed, 6)
        for family in ("regular", "scale_free")
        for d in (2, 5)
    ]
    return (Grid("onepass", tuple(insts), ("bm", "cactus")),)


def planarize(seed: int) -> tuple[Grid, ...]:
    insts = []
    for s in _instance_seeds(seed, 2):
        insts += [
            generated("regular", 50, 3, s),
            generated("scale_free", 50, 3, s),
            generated("regular", 100, 2, s),
        ]
    return (Grid("planarize", tuple(insts), PLANARIZE),)


def exact(seed: int) -> tuple[Grid, ...]:
    # Exact run times over seeds are heavy-tailed (regular n=10 d=2 already
    # ranges from 1 ms to 0.3 s), so the random instances are small enough to
    # stay far below K7's time for every seed, and K7, the same in every run,
    # carries the time.
    insts = []
    for s in _instance_seeds(seed, 8):
        insts += [generated("regular", 9, 2, s), generated("scale_free", 12, 2, s)]
    return (
        Grid("exact-k7", (complete(7),), ("exact",)),
        Grid("exact", tuple(insts), ("exact",)),
    )


WORKLOADS = {"study": study, "onepass": onepass, "planarize": planarize, "exact": exact}


def grids(workload: str, seed: int) -> tuple[Grid, ...]:
    return WORKLOADS[workload](seed) + PROBES
