"""Exact maximum planar subgraph / skewness via Kuratowski constraints.

The required engine is a self-contained combinatorial branch-and-bound: at
each node the graph minus the removed set is tested for planarity; if it is
not planar a Kuratowski subdivision is extracted and the node branches on
removing each of its edges (at least one must go, by Kuratowski's theorem).
The constraint pool accumulated along the way can be exported as an ILP
model for an external MIP solver.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from .graph import DisjointSets, EdgeSet, Graph, spanning_forest
from .planarity._engine import edge_addition_run
from .planarity.api import minimal_nonplanar_subset
from .planarity.types import NonPlanarStartError

DEFAULT_TIME_LIMIT_MS = 60_000.0  # the default search budget of `exact` and of an exact suite cell


@dataclass
class ExactResult:
    optimal_kept: EdgeSet
    skewness: int
    status: str  # "optimal" or "timeout-incumbent"
    nodes_explored: int
    constraint_pool: list[EdgeSet] = field(default_factory=list)
    lower_bound: int = 0


def _is_planar_ids(g: Graph, present: list[int]) -> bool:
    planar, _ = edge_addition_run(g.vertex_count, [g.edges[e] for e in present])
    return planar


def _extract_witness_ids(g: Graph, present: list[int], deadline: float) -> frozenset[int] | None:
    """Edge-minimal non-planar subset of `present`; None past the deadline."""
    return minimal_nonplanar_subset(g, present, deadline)


def _witness_packing_bound(g: Graph, all_ids: list[int], deadline: float) -> int:
    """Greedy edge-disjoint witness packing: a lower bound on the skewness.
    Past the deadline it returns the packing found so far."""
    remaining = list(all_ids)
    bound = 0
    while not _is_planar_ids(g, remaining):
        witness = _extract_witness_ids(g, remaining, deadline)
        if witness is None:
            break
        bound += 1
        remaining = [e for e in remaining if e not in witness]
    return bound


def _euler_rows(g: Graph) -> list[tuple[list[int], int]]:
    """(edge ids, 3n_c - 6) per connected component, by least vertex, on n_c >= 3
    vertices with more edges than a simple planar graph on them can keep."""
    ds = DisjointSets(g.vertex_count)
    for a, b in g.edges:
        ds.union(a, b)
    ids: dict[int, list[int]] = {ds.find(v): [] for v in range(g.vertex_count)}
    for e, (a, _) in enumerate(g.edges):
        ids[ds.find(a)].append(e)
    return [
        (es, 3 * ds.size[r] - 6)
        for r, es in ids.items()
        if ds.size[r] >= 3 and len(es) > 3 * ds.size[r] - 6
    ]


def check_time_limit(time_limit_ms: float) -> None:
    """Refuse a limit that is not positive and finite: no deadline fires on NaN or inf."""
    if not 0 < time_limit_ms < math.inf:
        raise ValueError(f"time_limit_ms must be positive and finite, got {time_limit_ms}")


def exact_skewness(
    g: Graph,
    time_limit_ms: float,
    initial_incumbent: Iterable[int] | None = None,
) -> ExactResult:
    """Branch-and-bound over removed-edge sets.

    Each node carries (removed R, fixed-in F).  A planar g - R updates the
    incumbent; otherwise a witness K is extracted and child i removes the
    i-th branchable edge of K while fixing the earlier ones in, which keeps
    the children disjoint.  A node whose witness lies entirely in F cannot
    be repaired and is pruned.  Nodes are pruned against the incumbent at
    expansion time, so a better starting incumbent never explores more nodes.
    A non-planar node with |R| + 1 >= incumbent is pruned before its witness
    is extracted: every child removes one more edge and could only tie.
    The search runs while the incumbent exceeds the lower bound, the larger
    of Euler's bound per component and a greedy witness packing, and stops
    early only at the deadline (`timeout-incumbent`); with no incumbent by
    then, a spanning forest is returned.
    """
    check_time_limit(time_limit_ms)
    m = len(g.edges)
    all_ids = list(range(m))
    deadline = time.monotonic() + time_limit_ms / 1000.0

    best_removed: frozenset[int] | None = None
    if initial_incumbent is not None:
        incumbent = g.check_edge_set(initial_incumbent)
        if not _is_planar_ids(g, incumbent):
            raise NonPlanarStartError("initial incumbent is not planar")
        best_removed = frozenset(all_ids).difference(incumbent)
    best_skew = len(best_removed) if best_removed is not None else m + 1

    pool: dict[EdgeSet, None] = {}  # witnesses in first-found order, without repeats

    # Euler per component first.  A witness has at least 9 edges, so an
    # edge-disjoint packing counts at most m // 9: run it only when it could
    # raise the bound and the bound does not already close the search.
    lower_bound = sum(len(es) - cap for es, cap in _euler_rows(g))
    if lower_bound < min(best_skew, m // 9):
        lower_bound = max(lower_bound, _witness_packing_bound(g, all_ids, deadline))

    nodes = 0
    status = "optimal"
    # Stack entries: (removed frozenset, fixed-in frozenset).
    stack: list[tuple[frozenset[int], frozenset[int]]] = [(frozenset(), frozenset())]
    while stack and best_skew > lower_bound:
        if time.monotonic() > deadline:
            status = "timeout-incumbent"
            break
        removed, fixed = stack.pop()
        if len(removed) >= best_skew:
            continue
        nodes += 1
        present = [e for e in all_ids if e not in removed]
        if _is_planar_ids(g, present):
            best_skew = len(removed)
            best_removed = removed
            continue
        if len(removed) + 1 >= best_skew:
            continue  # the failed test packs one witness: no child can do better
        witness = _extract_witness_ids(g, present, deadline)
        if witness is None:
            status = "timeout-incumbent"
            break
        pool[witness] = None
        branchable = sorted(witness - fixed)
        if not branchable:
            continue  # witness forced intact: no planar completion below
        # Child i removes branchable[i] and fixes the earlier ones in; pushed
        # last first, so that the children pop in edge-id order.
        for i in range(len(branchable) - 1, -1, -1):
            stack.append((removed | {branchable[i]}, fixed.union(branchable[:i])))

    if best_removed is None:
        # The deadline came before any planar node (the loop set the status).
        best_removed = frozenset(all_ids) - spanning_forest(g)
        best_skew = len(best_removed)
    kept = frozenset(all_ids) - best_removed
    return ExactResult(
        optimal_kept=kept,
        skewness=best_skew,
        status=status,
        nodes_explored=nodes,
        constraint_pool=list(pool),
        lower_bound=lower_bound,
    )


def export_ilp(g: Graph, pool: list[Iterable[int]]) -> str:
    """LP-format model: binary x<edge id> per edge, maximize their sum,
    per component C with more than 3|V(C)| - 6 edges the Euler row
    sum(x[E(C)]) <= 3|V(C)| - 6, and per pooled witness K (ids read by
    `Graph.check_edge_set`) the row sum(x[K]) <= |K| - 1: at least one edge
    of K must go.  Byte-deterministic."""
    lines = ["Maximize"]
    lines.append(" obj: " + _wrap_sum([f"x{e}" for e in range(len(g.edges))]))
    euler = _euler_rows(g)
    if euler or pool:
        lines.append("Subject To")
        for i, (es, cap) in enumerate(euler):
            lines.append(f" e{i}: {_wrap_sum([f'x{e}' for e in es])} <= {cap}")
        for i, k in enumerate(pool):
            k = sorted(g.check_edge_set(k))
            terms = _wrap_sum([f"x{e}" for e in k])
            lines.append(f" k{i}: {terms} <= {len(k) - 1}")
    lines.append("Binary")
    for e in range(len(g.edges)):
        lines.append(f" x{e}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _wrap_sum(terms: list[str], width: int = 200) -> str:
    if not terms:
        return "0"
    out: list[str] = []
    line = terms[0]
    for t in terms[1:]:
        if len(line) + len(t) + 3 > width:
            out.append(line + " +")
            line = t
        else:
            line += " + " + t
    out.append(line)
    return "\n     ".join(out)
