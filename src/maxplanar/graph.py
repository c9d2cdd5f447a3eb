"""Simple undirected graphs with stable integer edge ids.

Edge ids are positions in the constructor's edge list; every other module
(heuristics, exact solver, benchmark CSV rows) refers to edges by these ids.
Graphs are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass

# An EdgeSet is a plain frozenset of edge ids of some host Graph.
EdgeSet = frozenset[int]


class GraphError(ValueError):
    """Invalid graph input (loop, parallel edge, endpoint out of range)."""


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
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        object.__setattr__(self, "edges", tuple((int(a), int(b)) for a, b in self.edges))
        seen: set[tuple[int, int]] = set()
        for i, (a, b) in enumerate(self.edges):
            if a == b:
                raise GraphError(f"edge {i} is a self-loop at vertex {a}")
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise GraphError(f"edge {i} endpoint out of range: ({a}, {b})")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise GraphError(f"edge {i} duplicates {key}")
            seen.add(key)

    def all_edges(self) -> EdgeSet:
        return frozenset(range(len(self.edges)))

    def check_edge_set(self, keep: Collection[int]) -> None:
        """Raise GraphError naming an id of `keep` that is not an edge id here."""
        if keep and (min(keep) < 0 or max(keep) >= len(self.edges)):
            bad = min(keep) if min(keep) < 0 else max(keep)
            raise GraphError(f"edge id {bad} not in host graph")


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
    """Union-find over vertex ids 0..n-1 with path compression and ranks.

    Single-owner mutable state; not meant to be shared between workers.
    """

    __slots__ = ("parent", "rank")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

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
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True
