"""Independent brute-force oracles used to check the library's answers.

The planarity oracle decides by exhaustive Kuratowski subdivision search
(plus the sound shortcuts: fewer than nine edges cannot host a subdivision,
more than 3n-6 edges cannot be planar); it shares no code with the library
engines.  The skewness oracle enumerates removal sets in increasing size.
"""

from __future__ import annotations

import itertools

from maxplanar.graph import Graph
from maxplanar.planarity import is_planar


def planar_oracle(n: int, edges: list[tuple[int, int]]) -> bool:
    m = len(edges)
    if n < 5 or m < 9:
        return True
    if m > 3 * n - 6:
        return False
    if _has_subdivision_k5(n, edges):
        return False
    if _has_subdivision_k33(n, edges):
        return False
    return True


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _paths_exist(
    adj: list[set[int]],
    pairs: list[tuple[int, int]],
    branch: set[int],
    used: set[int],
    i: int,
) -> bool:
    """Backtracking search for internally disjoint paths linking all pairs."""
    if i == len(pairs):
        return True
    a, b = pairs[i]

    # Enumerate simple a-b paths whose interior avoids branch and used.
    def extend(cur: int, interior: list[int]) -> bool:
        for nxt in sorted(adj[cur]):
            if nxt == b:
                for v in interior:
                    used.add(v)
                if _paths_exist(adj, pairs, branch, used, i + 1):
                    return True
                for v in interior:
                    used.discard(v)
            elif nxt not in branch and nxt not in used and nxt not in interior:
                interior.append(nxt)
                if extend(nxt, interior):
                    return True
                interior.pop()
        return False

    return extend(a, [])


def _has_subdivision_k5(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = _adjacency(n, edges)
    candidates = [v for v in range(n) if len(adj[v]) >= 4]
    for branch in itertools.combinations(candidates, 5):
        pairs = list(itertools.combinations(branch, 2))
        if _paths_exist(adj, pairs, set(branch), set(), 0):
            return True
    return False


def _has_subdivision_k33(n: int, edges: list[tuple[int, int]]) -> bool:
    adj = _adjacency(n, edges)
    candidates = [v for v in range(n) if len(adj[v]) >= 3]
    for six in itertools.combinations(candidates, 6):
        rest = six[1:]
        for two in itertools.combinations(rest, 2):
            part_a = (six[0],) + two
            part_b = tuple(v for v in rest if v not in two)
            pairs = [(a, b) for a in part_a for b in part_b]
            if _paths_exist(adj, pairs, set(six), set(), 0):
                return True
    return False


def skewness_oracle(g: Graph, max_remove: int | None = None) -> int:
    """Smallest k such that removing k edges leaves a planar graph.

    Enumerates removal sets in increasing size; planarity of the remainder
    is checked with the library test (the search, not the test, is what this
    oracle makes independent -- the test itself is oracle-checked separately
    against the subdivision search).
    """
    m = len(g.edges)
    ids = list(range(m))
    limit = m if max_remove is None else max_remove
    for k in range(limit + 1):
        for removed in itertools.combinations(ids, k):
            if is_planar(g, [e for e in ids if e not in removed]):
                return k
    raise AssertionError("no planar subgraph found (impossible)")


def crossing_lower_bound(g: Graph, max_remove: int | None = None) -> int:
    """Lower bound on the crossing number: deleting one edge per crossing of
    any drawing leaves a planar graph, so cr(G) >= skewness(G)."""
    return skewness_oracle(g, max_remove)


def maximal_planar_subgraph_sizes(g: Graph) -> set[int]:
    """Sizes of all inclusionwise maximal planar edge subsets (brute force).

    Only feasible for small m; used to pin expected values like "every
    maximal planar subgraph of K5 has 9 edges".
    """
    m = len(g.edges)
    planar_sets = [
        subset
        for k in range(m + 1)
        for subset in itertools.combinations(range(m), k)
        if is_planar(g, subset)
    ]
    planar_lookup = {frozenset(s) for s in planar_sets}
    sizes: set[int] = set()
    for s in planar_sets:
        ss = frozenset(s)
        if any(ss | {e} in planar_lookup for e in range(m) if e not in ss):
            continue
        sizes.add(len(ss))
    return sizes


def triangles_in(g: Graph, ids) -> list[tuple[int, int, int]]:
    """The 3-cycles of g's spanning subgraph on the edge ids `ids`, each as
    its three edge ids in ascending order, in ascending order.

    These are the triangles of a triangular cactus: neither its triangle nor
    its connector edges close any other cycle.
    """
    by_ends = {frozenset(g.edges[e]): e for e in ids}
    nbrs: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for e in ids:
        a, b = g.edges[e]
        nbrs[a].add(b)
        nbrs[b].add(a)
    return sorted(
        tuple(sorted(by_ends[frozenset(p)] for p in ((a, b), (a, c), (b, c))))
        for a in range(g.vertex_count)
        for b in nbrs[a]
        if a < b
        for c in nbrs[a] & nbrs[b]
        if b < c
    )


def kernel_snapshot(k, verts) -> tuple:
    """A planarity kernel as a fresh one would read: its compact form, its
    vertices, and each of `verts`' location and closure.  A vertex whose
    whole component reduced away is located at None, since which of its
    vertices went last depends on the order of the reductions."""
    nbrs = k._nbrs
    locs = {}
    for v in verts:
        loc = k._locate(v)
        locs[v] = loc if type(loc) is tuple or loc in nbrs else None
    closures = {v: sorted(k.closure(v)) for v in verts if locs[v] is not None}
    return k.n, k.edges, sorted(nbrs), locs, closures


def assert_kernel_is_fresh(k) -> None:
    """Check a kernel kept in place against one built from its input graph."""
    from maxplanar.planarity._kernel import PlanarityKernel

    adj = k._adj
    fresh = PlanarityKernel([(a, b) for a in adj for b in adj[a] if a < b])
    assert kernel_snapshot(k, list(adj)) == kernel_snapshot(fresh, list(adj))


class FreshKernelCheck:
    """While active, checks every `PlanarityKernel.add` against a fresh
    kernel of the same input graph, and records each kernel constructed."""

    def __init__(self, monkeypatch) -> None:
        from maxplanar.planarity._kernel import PlanarityKernel

        self.checks = 0
        self.built: list[PlanarityKernel] = []
        add, init = PlanarityKernel.add, PlanarityKernel.__init__
        busy = []

        def checked_add(kernel, edges):
            add(kernel, edges)
            if not busy:
                busy.append(True)
                try:
                    assert_kernel_is_fresh(kernel)
                finally:
                    busy.pop()
                self.checks += 1

        def counted_init(kernel, edges):
            if not busy:
                self.built.append(kernel)
            busy.append(True)
            try:
                init(kernel, edges)
            finally:
                busy.pop()

        monkeypatch.setattr(PlanarityKernel, "add", checked_add)
        monkeypatch.setattr(PlanarityKernel, "__init__", counted_init)


def watch_growth(monkeypatch) -> tuple[list[tuple[int, int]], list[bool], list[int]]:
    """Record the candidates whose plus-edge kernel goes to the engine, the
    engine's verdicts, and the size n + m of each graph the engine runs on."""
    from maxplanar import heuristics
    from maxplanar.planarity._kernel import PlanarityKernel

    tested: list[tuple[int, int]] = []
    verdicts: list[bool] = []
    sizes: list[int] = []
    plus_edge, engine = PlanarityKernel.plus_edge, heuristics.edge_addition_run

    def watched_plus_edge(self, a, b):
        plus = plus_edge(self, a, b)
        if plus is not None:
            tested.append((a, b))
        return plus

    def counting(n, edges, *args, **kwargs):
        result = engine(n, edges, *args, **kwargs)
        verdicts.append(result[0])
        sizes.append(n + len(edges))
        return result

    monkeypatch.setattr(PlanarityKernel, "plus_edge", watched_plus_edge)
    monkeypatch.setattr(heuristics, "edge_addition_run", counting)
    return tested, verdicts, sizes
