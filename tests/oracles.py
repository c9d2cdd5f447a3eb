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
