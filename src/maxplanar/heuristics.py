"""Planar subgraph heuristics, each label run and timed by `run_algorithm`.
A start set -- empty (`naive`), one skip-mode pass (`bm`) or a triangular
cactus (`cactus`) -- is grown to maximality for `naive`, `bm+` and `cactus+`.

Growth runs the planarity engine on the planarity kernel of a candidate's
kept part plus the edge, and only when no cheaper rule settles the verdict;
see `grow_maximal`.

All operations are pure in (graph, seed): identical inputs give identical
kept-edge sets.  Runtime is measured around the algorithm itself, excluding
any parse or I/O done by callers.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import DisjointSets, EdgeSet, Graph, adjacency
from .planarity import edge_addition_subgraph, is_planar
from .planarity._engine import edge_addition_run
from .planarity._kernel import PlanarityKernel
from .planarity.types import NonPlanarStartError

SEED_SPACE = 2**63
DEFAULT_RESTARTS = 10  # naive's default number of growths, the best of which it keeps


def check_int(value: int, name: str, least: int) -> None:
    """Refuse a seed or count that is not an int (a bool is not) or is below
    `least`: a records CSV could not read 1.5 back, and True would run as 1.
    Seeds start at 0, as Random(-s) draws what Random(s) draws."""
    if type(value) is not int:
        raise ValueError(f"{name}: {value!r} is not an int")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SubgraphResult:
    """One algorithm run: kept edges plus bookkeeping for the benchmark rows."""

    kept: EdgeSet
    algorithm: str
    seed: int
    runtime_ms: float
    maximal: bool


def grow_maximal(g: Graph, start: Iterable[int], seed: int) -> EdgeSet:
    """Grow the edge ids `start`, read by `Graph.check_edge_set`, to an
    inclusionwise maximal planar edge set.

    The edges outside `start` are attempted once each, in a seed-shuffled
    uniformly random order; an edge is kept iff the subgraph stays planar at
    the moment it is tried.  One pass suffices: planarity never returns once
    lost, so an edge rejected earlier would be rejected against any superset.

    Growth stops once the kept set has 3n - 6 edges (n >= 3), as it is then
    maximal planar.  Until then, each candidate meets one planarity kernel of
    the kept edges (trees peeled, degree-2 chains suppressed, parallel edges
    merged), kept in place as each edge is kept (`PlanarityKernel.add`).
    Four rules, proved in the `planarity._kernel` docstring, spare the engine:
    a bridge is kept, and so is an edge within one piece of the kernel, or one
    whose ends' locations share a kernel neighbour of degree 3
    (`PlanarityKernel.shares_a_wedge`); an engine reject drops, each at its
    turn, every edge of g between the closures of the rejected ends'
    locations (`PlanarityKernel.closure`), as each such edge's plus-edge graph
    has the rejected one as a minor, now and after any growth.  Every other
    edge costs one engine run on the kernel of its kept part plus the edge,
    rejected before any search when past the part's Euler bound.
    """
    start = g.check_edge_set(start)
    n = g.vertex_count
    kernel = PlanarityKernel(g.edges[e] for e in start)
    if start and not is_planar(g, start):
        raise NonPlanarStartError("starting edge set is not planar")
    kept = set(start)
    rest = [e for e in range(len(g.edges)) if e not in kept]
    rng = random.Random(seed)
    rng.shuffle(rest)

    # Edges a rejected test has shown non-planar against every later kept set.
    settled: set[int] = set()
    adj = adjacency(n, g.edges)
    for eid in rest:
        if n >= 3 and len(kept) >= 3 * n - 6:
            break  # maximal planar
        if eid in settled:
            continue
        a, b = g.edges[eid]
        # None: the edge fits in a face at a degree-3 kernel vertex, lies
        # within one piece of the planar kept graph, or is a bridge of it.
        plus = None if kernel.shares_a_wedge(a, b) else kernel.plus_edge(a, b)
        if plus is not None and not edge_addition_run(*plus)[0]:
            # Non-planar with this kept part and every one it grows into.
            ends = set(kernel.closure(b))
            settled.update(e for u in kernel.closure(a) for w, e in adj[u] if w in ends)
            continue
        kernel.add([(a, b)])
        kept.add(eid)
    return frozenset(kept)


def build_cactus(g: Graph, seed: int) -> EdgeSet:
    """Edge ids of a greedy triangular cactus forest plus connector edges.

    Triangle phase: edges are scanned once, in seed-shuffled order; a
    triangle {u, v, w} over an edge (u, v) is kept iff its three vertices
    lie in three distinct components, which keeps every edge in at most one
    cycle and every cycle a triangle.  One pass is saturated: components only
    merge afterwards, so an edge with no such triangle when scanned has none
    later, and a kept edge has both ends in one component from then on.
    Connector phase: remaining components are joined by edges in id order.
    The triangles are the kept set's 3-cycles, since no other cycle closes.
    """
    n = g.vertex_count
    # Per vertex: {neighbour: edge id}, neighbours in ascending order.
    nbrs = [dict(sorted(row)) for row in adjacency(n, g.edges)]
    ds = DisjointSets(n)
    rng = random.Random(seed)
    order = list(range(len(g.edges)))
    rng.shuffle(order)

    kept: set[int] = set()
    for eid in order:
        u, v = g.edges[eid]
        ru, rv = ds.find(u), ds.find(v)
        if ru == rv:
            continue
        if len(nbrs[u]) > len(nbrs[v]):
            u, v = v, u
        big = nbrs[v]
        for w in nbrs[u]:
            if w in big:
                rw = ds.find(w)
                if rw != ru and rw != rv:
                    break
        else:
            continue
        ds.union(u, v)
        ds.union(u, w)
        kept.update((eid, nbrs[u][w], big[w]))

    for eid, (a, b) in enumerate(g.edges):
        if ds.union(a, b):
            kept.add(eid)
    return frozenset(kept)


ALGORITHMS = ("naive", "bm", "bm+", "cactus", "cactus+")


def run_algorithm(
    g: Graph, name: str, seed: int, restarts: int = DEFAULT_RESTARTS
) -> SubgraphResult:
    """Run and time the heuristic labelled `name`.

    The start set is empty for "naive", `edge_addition_subgraph` for "bm"
    and `build_cactus` for "cactus"; a "+" grows it with `grow_maximal`.
    "naive" grows `restarts` times, from seeds drawn from Random(seed), and
    keeps the largest result; the first wins ties, and its seed is reported.
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    check_int(restarts, "restarts", 1)
    check_int(seed, "seed", 0)
    t0 = time.perf_counter()
    if name == "naive":
        rng = random.Random(seed)
        kept = None
        for _ in range(restarts):
            run_seed = rng.randrange(SEED_SPACE)
            grown = grow_maximal(g, frozenset(), run_seed)
            if kept is None or len(grown) > len(kept):
                kept, seed = grown, run_seed
    else:
        start_set = edge_addition_subgraph if name.startswith("bm") else build_cactus
        kept = start_set(g, seed)
        if name.endswith("+"):
            kept = grow_maximal(g, kept, seed)
    ms = (time.perf_counter() - t0) * 1000.0
    return SubgraphResult(kept, name, seed, ms, maximal=name not in ("bm", "cactus"))


def cactus_plus(g: Graph, seed: int) -> SubgraphResult:
    """The "cactus+" run, under the name `bench.exact_from_cactus_plus` calls."""
    return run_algorithm(g, "cactus+", seed)
