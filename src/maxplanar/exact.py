"""Exact maximum planar subgraph / skewness via Kuratowski constraints.

The required engine is a self-contained combinatorial branch-and-bound: at
each node the graph minus the removed set is tested for planarity; if it is
not planar a Kuratowski subdivision is extracted and the node branches on
removing each of its edges (at least one must go, by Kuratowski's theorem).
The constraint pool accumulated along the way can be exported as an ILP
model for an external MIP solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graph import EdgeSet, Graph, spanning_forest
from .planarity._engine import edge_addition_run
from .planarity.api import minimal_nonplanar_subset
from .planarity.types import NonPlanarStartError


@dataclass(frozen=True)
class KuratowskiConstraint:
    """At least one edge of a Kuratowski subdivision must be removed."""

    edges: EdgeSet
    rhs: int  # == len(edges) - 1

    def violation(self, x: list[float]) -> float:
        return sum(x[e] for e in self.edges) - self.rhs


@dataclass
class ExactResult:
    optimal_kept: EdgeSet
    skewness: int
    status: str  # "optimal" or "timeout-incumbent"
    nodes_explored: int
    constraint_pool: list[KuratowskiConstraint] = field(default_factory=list)


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


def exact_skewness(
    g: Graph,
    time_limit_ms: float,
    initial_incumbent: EdgeSet | None = None,
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
    """
    if time_limit_ms <= 0:
        raise ValueError("time_limit_ms must be positive")
    m = len(g.edges)
    all_ids = list(range(m))
    deadline = time.monotonic() + time_limit_ms / 1000.0

    best_removed: frozenset[int] | None = None
    if initial_incumbent is not None:
        g.check_edge_set(initial_incumbent)
        if not _is_planar_ids(g, sorted(initial_incumbent)):
            raise NonPlanarStartError("initial incumbent is not planar")
        best_removed = frozenset(all_ids) - initial_incumbent
    best_skew = len(best_removed) if best_removed is not None else m + 1

    pool: list[KuratowskiConstraint] = []
    pool_seen: set[frozenset[int]] = set()

    def remember(witness: frozenset[int]) -> None:
        if witness not in pool_seen:
            pool_seen.add(witness)
            pool.append(KuratowskiConstraint(edges=witness, rhs=len(witness) - 1))

    lower_bound = _witness_packing_bound(g, all_ids, deadline)

    nodes = 0
    status = "optimal"
    # Stack entries: (removed frozenset, fixed-in frozenset).
    stack: list[tuple[frozenset[int], frozenset[int]]] = [(frozenset(), frozenset())]
    while stack:
        if best_skew <= lower_bound:
            break
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
        remember(witness)
        branchable = sorted(witness - fixed)
        if not branchable:
            continue  # witness forced intact: no planar completion below
        children = []
        fixed_acc = fixed
        for eid in branchable:
            children.append((removed | {eid}, fixed_acc))
            fixed_acc = fixed_acc | {eid}
        for child in reversed(children):  # pop order == edge-id order
            stack.append(child)

    if best_removed is None:
        # No incumbent and the search never reached a planar node: only
        # possible when the time limit is hit first.  A forest is planar.
        best_removed = frozenset(all_ids) - spanning_forest(g)
        best_skew = len(best_removed)
        status = "timeout-incumbent"
    kept = frozenset(all_ids) - best_removed
    return ExactResult(
        optimal_kept=kept,
        skewness=best_skew,
        status=status,
        nodes_explored=nodes,
        constraint_pool=pool,
    )


def export_ilp(g: Graph, pool: list[KuratowskiConstraint]) -> str:
    """LP-format model: binary x<edge id> per edge, maximize their sum,
    one row per pooled Kuratowski constraint.  Byte-deterministic."""
    lines = ["Maximize"]
    lines.append(" obj: " + _wrap_sum([f"x{e}" for e in range(len(g.edges))]))
    if pool:
        lines.append("Subject To")
        for i, c in enumerate(pool):
            terms = _wrap_sum([f"x{e}" for e in sorted(c.edges)])
            lines.append(f" k{i}: {terms} <= {c.rhs}")
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
