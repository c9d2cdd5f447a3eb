"""Planarity operations: test, embed, extract witness, skip-mode subgraph."""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Iterable

from ..graph import EdgeSet, Graph, adjacency, connected_components
from ._engine import edge_addition_run
from ._lr import lr_embedding
from .types import Embedding, KuratowskiSubdivision, PlanarGraphError, PlanarityOutcome


def is_planar(g: Graph, ids: Iterable[int] | None = None) -> bool:
    """Planarity of g, or of its spanning subgraph on the edge ids `ids`."""
    edges = g.edges if ids is None else [g.edges[e] for e in ids]
    planar, _ = edge_addition_run(g.vertex_count, edges)
    return planar


def embed(g: Graph) -> PlanarityOutcome:
    """Full outcome: an embedding when planar, a Kuratowski witness when not."""
    rotations = lr_embedding(g.vertex_count, g.edges)
    if rotations is not None:
        return PlanarityOutcome(
            planar=True, embedding=Embedding(tuple(tuple(r) for r in rotations))
        )
    return PlanarityOutcome(planar=False, witness=extract_kuratowski(g))


def extract_kuratowski(g: Graph) -> KuratowskiSubdivision:
    """Edge-minimal non-planar edge set of g, classified as K5 or K3,3."""
    if is_planar(g):
        raise PlanarGraphError("graph is planar; no Kuratowski subdivision exists")
    return classify_witness(g, minimal_nonplanar_subset(g, range(len(g.edges))))


def minimal_nonplanar_subset(
    g: Graph, ids: Iterable[int], deadline: float | None = None
) -> frozenset[int] | None:
    """Edge-minimal non-planar subset of the non-planar edge-id set `ids`.

    In the order of `ids`, drop each edge whose removal keeps the rest
    non-planar; what survives is a Kuratowski subdivision.  An edge with an
    endpoint of degree 1 lies on no subdivision and is dropped untested.
    Returns None once `deadline` (a `time.monotonic()` value, checked before
    each test) has passed.
    """
    kept = list(ids)
    degree = Counter(v for e in kept for v in g.edges[e])
    for eid in list(kept):
        a, b = g.edges[eid]
        trial = [e for e in kept if e != eid]
        if degree[a] > 1 and degree[b] > 1:
            if deadline is not None and time.monotonic() > deadline:
                return None
            if is_planar(g, trial):
                continue
        kept = trial
        degree[a] -= 1
        degree[b] -= 1
    return frozenset(kept)


def classify_witness(g: Graph, edge_ids: EdgeSet) -> KuratowskiSubdivision:
    """Classify an edge set by its degree signature: five branch vertices of
    degree 4 (K5) or six of degree 3 (K3,3), every other vertex of degree 2.

    Raises PlanarGraphError on any other signature.  Only degrees are read;
    non-planarity and minimality are witness_is_valid's checks.
    """
    deg = Counter(v for e in edge_ids for v in g.edges[e])
    branch = sorted(v for v, d in deg.items() if d != 2)
    degrees = sorted(deg[v] for v in branch)
    if degrees == [4, 4, 4, 4, 4]:
        kind = "K5"
    elif degrees == [3, 3, 3, 3, 3, 3]:
        kind = "K3_3"
    else:
        raise PlanarGraphError(
            f"edge set is not a Kuratowski subdivision (non-path degrees {degrees})"
        )
    return KuratowskiSubdivision(kind=kind, branch_vertices=tuple(branch), edges=edge_ids)


def edge_addition_subgraph(g: Graph, order_seed: int = 0) -> EdgeSet:
    """Planar spanning subgraph from one skip-mode edge-addition pass.

    The DFS root and neighbor orders are shuffled by the seed; every DFS tree
    edge is embedded, and each backedge is kept unless it cannot be added to
    the current partial embedding, in which case it is skipped and the pass
    continues.
    """
    n = g.vertex_count
    adj = adjacency(n, g.edges)
    root_order = list(range(n))
    rng = random.Random(order_seed)
    rng.shuffle(root_order)
    for lst in adj:
        rng.shuffle(lst)
    _, skipped = edge_addition_run(
        n,
        g.edges,
        root_order=root_order,
        adjacency=adj,
        skip_unembeddable=True,
    )
    return frozenset(range(len(g.edges))) - frozenset(skipped)


def witness_is_valid(g: Graph, w: KuratowskiSubdivision) -> bool:
    """Degree signature, non-planarity, and one-edge-removal minimality."""
    try:
        classified = classify_witness(g, w.edges)
    except PlanarGraphError:
        return False
    if classified.kind != w.kind or classified.branch_vertices != w.branch_vertices:
        return False
    ids = sorted(w.edges)
    if is_planar(g, ids):
        return False
    return all(is_planar(g, ids[:i] + ids[i + 1 :]) for i in range(len(ids)))


def validate_embedding(g: Graph, emb: Embedding) -> None:
    """Raise AssertionError unless emb is a planar embedding of g.

    Checks that rotations contain exactly the incident edges of each vertex
    and that Euler's formula V - E + F = 2 holds on every connected component
    with faces obtained by tracing the rotation system.
    """
    if len(emb.rotations) != g.vertex_count:
        raise AssertionError("rotation count != vertex count")
    for v, incident in enumerate(adjacency(g.vertex_count, g.edges)):
        if sorted(emb.rotations[v]) != sorted(e for _, e in incident):
            raise AssertionError(f"rotation of vertex {v} does not match incidences")

    comps = connected_components(g)
    comp_of = [0] * g.vertex_count
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    face_per_comp = [0] * len(comps)
    for face in emb.faces(g):
        face_per_comp[comp_of[face[0][0]]] += 1
    edges_per_comp = [0] * len(comps)
    for a, _ in g.edges:
        edges_per_comp[comp_of[a]] += 1
    for ci, comp in enumerate(comps):
        v_c = len(comp)
        e_c = edges_per_comp[ci]
        f_c = face_per_comp[ci]
        if e_c == 0:
            continue  # single vertex: no arcs, no faces traced
        if v_c - e_c + f_c != 2:
            raise AssertionError(
                f"Euler check failed on component {ci}: V={v_c} E={e_c} F={f_c}"
            )


__all__ = [
    "is_planar",
    "embed",
    "extract_kuratowski",
    "minimal_nonplanar_subset",
    "classify_witness",
    "edge_addition_subgraph",
    "witness_is_valid",
    "validate_embedding",
    "Embedding",
    "KuratowskiSubdivision",
    "PlanarityOutcome",
    "PlanarGraphError",
]
