"""Simple undirected graphs with stable integer edge ids.

Edge ids are positions in the constructor's edge list; every other module
(heuristics, exact solver, benchmark CSV rows) refers to edges by these ids.
Graphs are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

# An EdgeSet is a plain frozenset of edge ids of some host Graph.
EdgeSet = frozenset[int]


class GraphError(ValueError):
    """Invalid graph input (loop, parallel edge, endpoint out of range or not
    an int, a bool not being one)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..vertex_count-1.

    Loops and parallel edges are rejected at construction: the algorithms
    here are defined on simple graphs only, and silent simplification would
    break the id <-> edge correspondence.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex_count must be a nonnegative int, got {n!r}")
        object.__setattr__(self, "edges", tuple((a, b) for a, b in self.edges))
        seen: set[tuple[int, int]] = set()
        for i, (a, b) in enumerate(self.edges):
            if not (type(a) is type(b) is int and 0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge {i} endpoint not an int or out of range: ({a!r}, {b!r})")
            if a == b:
                raise GraphError(f"edge {i} is a self-loop at vertex {a}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise GraphError(f"edge {i} duplicates {key}")
            seen.add(key)

    def all_edges(self) -> EdgeSet:
        return frozenset(range(len(self.edges)))

    def check_edge_set(self, ids: Iterable[int]) -> list[int]:
        """The edge ids `ids` (any iterable, read once) as a list in their given
        order; GraphError names an id that is not an int (a bool is not), is
        not an edge id here, or repeats."""
        ids = list(ids)
        for e in ids:
            if type(e) is not int:
                raise GraphError(f"edge id {e!r} is not an int")
        if ids and (min(ids) < 0 or max(ids) >= len(self.edges)):
            bad = min(ids) if min(ids) < 0 else max(ids)
            raise GraphError(f"edge id {bad} not in host graph")
        if len(set(ids)) < len(ids):
            bad = next(e for e, count in Counter(ids).items() if count > 1)
            raise GraphError(f"edge id {bad} repeated")
        return ids


def adjacency(n: int, edges: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (neighbor, edge id), in edge-id order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (a, b) in enumerate(edges):
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    return adj


def connected_components(g: Graph) -> list[set[int]]:
    """Vertex partition by connectivity, ordered by smallest member."""
    ds = DisjointSets(g.vertex_count)
    for a, b in g.edges:
        ds.union(a, b)
    groups: dict[int, set[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(ds.find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def spanning_forest(g: Graph) -> EdgeSet:
    """Edge ids of a spanning forest (first acyclic edges in id order)."""
    ds = DisjointSets(g.vertex_count)
    forest: set[int] = set()
    for eid, (a, b) in enumerate(g.edges):
        if ds.union(a, b):
            forest.add(eid)
    return frozenset(forest)


class DisjointSets:
    """Union-find over vertex ids 0..n-1 with path compression and union by
    size; `size[r]` is the vertex count of the class whose root is r.

    Single-owner mutable state; not meant to be shared between workers.
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True
