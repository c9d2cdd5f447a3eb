"""Planar subgraph heuristics: naive growth, skip-mode test, cactus, and the
"+" variants that grow a seed subgraph to maximality.

Growth decides each candidate edge by one planarity-engine run on the
planarity kernel of the candidate's component plus the edge, never on the
whole component; see `grow_maximal`.

All operations are pure in (graph, seed): identical inputs give identical
kept-edge sets.  Runtime is measured around the algorithm itself, excluding
any parse or I/O done by callers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .graph import DisjointSets, EdgeSet, Graph
from .planarity import edge_addition_subgraph, is_planar
from .planarity._engine import edge_addition_run
from .planarity._kernel import PlanarityKernel
from .planarity.types import NonPlanarStartError

SEED_SPACE = 2**63


@dataclass(frozen=True)
class SubgraphResult:
    """One algorithm run: kept edges plus bookkeeping for the benchmark rows."""

    kept: EdgeSet
    algorithm: str
    seed: int
    runtime_ms: float
    maximal: bool


@dataclass
class CactusForest:
    """Greedy triangular cactus: triangles plus forest connectors."""

    triangles: list[tuple[int, int, int]] = field(default_factory=list)
    connector_edges: EdgeSet = frozenset()
    triangle_edges: EdgeSet = frozenset()


def grow_maximal(g: Graph, start: EdgeSet, seed: int) -> EdgeSet:
    """Grow `start` to an inclusionwise maximal planar edge set.

    The edges outside `start` are attempted once each, in a seed-shuffled
    uniformly random order; an edge is kept iff the subgraph stays planar at
    the moment it is tried.  One pass suffices: planarity never returns once
    lost, so an edge rejected earlier would be rejected against any superset.

    An edge that joins two components is kept untested, and one that breaks
    its component's Euler bound is dropped untested.  Every other edge is
    tested by one engine run on the planarity kernel of its component plus
    the edge: trees peeled, degree-2 chains suppressed, parallel edges
    merged, which preserves the verdict and leaves about half the graph.
    The component's kernel is built at its first test and reused until an
    accepted edge changes the component.
    """
    g.check_edge_set(start)
    n = g.vertex_count
    # Per component root: its edges as endpoint pairs, and its vertex count.
    comp_edges: dict[int, list[tuple[int, int]]] = {}
    comp_size = [1] * n
    # Per component root: the kernel of the component as it stands, built at
    # its first test and dropped when the component changes.
    kernels: dict[int, PlanarityKernel] = {}
    ds = DisjointSets(n)

    def absorb(eid: int) -> bool:
        """Add edge to the component structures; False if it closes a cycle."""
        a, b = g.edges[eid]
        ra, rb = ds.find(a), ds.find(b)
        kernels.pop(ra, None)
        kernels.pop(rb, None)
        if ra == rb:
            comp_edges.setdefault(ra, []).append((a, b))
            return False
        ds.union(a, b)
        root = ds.find(a)
        ea = comp_edges.pop(ra, [])
        eb = comp_edges.pop(rb, [])
        if len(ea) < len(eb):
            ea, eb = eb, ea
        ea.extend(eb)
        ea.append((a, b))
        comp_edges[root] = ea
        comp_size[root] = comp_size[ra] + comp_size[rb]
        return True

    start_ids = sorted(start)
    for eid in start_ids:
        absorb(eid)
    if start and not is_planar(g, start_ids):
        raise NonPlanarStartError("starting edge set is not planar")

    rest = [e for e in range(len(g.edges)) if e not in start]
    rng = random.Random(seed)
    rng.shuffle(rest)

    kept = set(start)
    max_edges = 3 * n - 6 if n >= 3 else n - 1
    for eid in rest:
        if len(kept) >= max_edges:
            break
        a, b = g.edges[eid]
        ra, rb = ds.find(a), ds.find(b)
        if ra != rb:
            # Bridging two planar components always stays planar.
            absorb(eid)
            kept.add(eid)
            continue
        ce = comp_edges[ra]
        nc = comp_size[ra]
        if nc >= 3 and len(ce) + 1 > 3 * nc - 6:
            continue  # Euler bound: cannot be planar
        kernel = kernels.get(ra)
        if kernel is None:
            kernel = kernels[ra] = PlanarityKernel(ce)
        planar, _ = edge_addition_run(*kernel.plus_edge(a, b))
        if planar:
            absorb(eid)
            kept.add(eid)
    return frozenset(kept)


def naive(g: Graph, seed: int) -> SubgraphResult:
    """Insert every edge in random order, keeping it unless planarity breaks."""
    t0 = time.perf_counter()
    kept = grow_maximal(g, frozenset(), seed)
    ms = (time.perf_counter() - t0) * 1000.0
    return SubgraphResult(kept, "naive", seed, ms, maximal=True)


def multistart_naive(g: Graph, restarts: int, seed: int) -> SubgraphResult:
    """Best of `restarts` independent naive runs; first run wins ties."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    run_seeds = [rng.randrange(SEED_SPACE) for _ in range(restarts)]
    best: EdgeSet | None = None
    best_seed = run_seeds[0]
    for s in run_seeds:
        kept = grow_maximal(g, frozenset(), s)
        if best is None or len(kept) > len(best):
            best = kept
            best_seed = s
    ms = (time.perf_counter() - t0) * 1000.0
    assert best is not None
    return SubgraphResult(best, "naive", best_seed, ms, maximal=True)


def bm_subgraph(g: Graph, seed: int) -> SubgraphResult:
    """Planarity-test pass that skips unembeddable backedges (Boyer-Myrvold)."""
    t0 = time.perf_counter()
    kept = edge_addition_subgraph(g, seed)
    ms = (time.perf_counter() - t0) * 1000.0
    return SubgraphResult(kept, "bm", seed, ms, maximal=False)


def bm_plus(g: Graph, seed: int) -> SubgraphResult:
    """bm_subgraph grown to maximality by the naive postprocessor."""
    t0 = time.perf_counter()
    kept = grow_maximal(g, edge_addition_subgraph(g, seed), seed)
    ms = (time.perf_counter() - t0) * 1000.0
    return SubgraphResult(kept, "bm+", seed, ms, maximal=True)


def build_cactus(g: Graph, seed: int) -> CactusForest:
    """Greedy triangular cactus forest plus connector edges.

    Triangle phase: edges are scanned in seed-shuffled order; a triangle
    {u, v, w} over an edge (u, v) is accepted iff its three vertices lie in
    three distinct components, which keeps every edge in at most one cycle
    and every cycle a triangle.  Passes repeat until nothing is added (a
    single pass already suffices: distinctness only decays as classes merge).
    Connector phase: remaining components are joined by edges in id order.
    """
    n = g.vertex_count
    nbr_sets = g.neighbor_sets()
    nbr_sorted = [sorted(s) for s in nbr_sets]
    ds = DisjointSets(n)
    rng = random.Random(seed)
    order = list(range(len(g.edges)))
    rng.shuffle(order)

    triangles: list[tuple[int, int, int]] = []
    tri_edges: set[int] = set()
    while True:
        added = False
        for eid in order:
            u, v = g.edges[eid]
            ru, rv = ds.find(u), ds.find(v)
            if ru == rv:
                continue
            if len(nbr_sorted[u]) > len(nbr_sorted[v]):
                u, v = v, u
            hit = None
            big = nbr_sets[v]
            for w in nbr_sorted[u]:
                if w in big:
                    rw = ds.find(w)
                    if rw != ru and rw != rv:
                        hit = w
                        break
            if hit is None:
                continue
            w = hit
            ds.union(u, v)
            ds.union(u, w)
            tri_edges.add(eid)
            tri_edges.add(g.edge_id(u, w))
            tri_edges.add(g.edge_id(v, w))
            a, b = g.edges[eid]
            triangles.append((a, b, w))
            added = True
        if not added:
            break

    connectors: set[int] = set()
    for eid, (a, b) in enumerate(g.edges):
        if ds.union(a, b):
            connectors.add(eid)

    return CactusForest(
        triangles=triangles,
        connector_edges=frozenset(connectors),
        triangle_edges=frozenset(tri_edges),
    )


def cactus_subgraph(g: Graph, seed: int) -> SubgraphResult:
    """Triangular-cactus approximation; planar by construction, no test used."""
    t0 = time.perf_counter()
    forest = build_cactus(g, seed)
    kept = forest.triangle_edges | forest.connector_edges
    ms = (time.perf_counter() - t0) * 1000.0
    return SubgraphResult(frozenset(kept), "cactus", seed, ms, maximal=False)


def cactus_plus(g: Graph, seed: int) -> SubgraphResult:
    """cactus_subgraph grown to maximality by the naive postprocessor."""
    t0 = time.perf_counter()
    forest = build_cactus(g, seed)
    kept = grow_maximal(g, forest.triangle_edges | forest.connector_edges, seed)
    ms = (time.perf_counter() - t0) * 1000.0
    return SubgraphResult(kept, "cactus+", seed, ms, maximal=True)


ALGORITHMS = ("naive", "bm", "bm+", "cactus", "cactus+")


def run_algorithm(
    g: Graph, name: str, seed: int, restarts: int = 10
) -> SubgraphResult:
    """Dispatch by CLI label; "naive" is the multi-start variant."""
    if name == "naive":
        return multistart_naive(g, restarts, seed)
    if name == "bm":
        return bm_subgraph(g, seed)
    if name == "bm+":
        return bm_plus(g, seed)
    if name == "cactus":
        return cactus_subgraph(g, seed)
    if name == "cactus+":
        return cactus_plus(g, seed)
    raise ValueError(f"unknown algorithm {name!r}")
