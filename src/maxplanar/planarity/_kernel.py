"""Planarity kernel: the smallest graph the reductions below leave behind.

Three reductions preserve planarity in both directions: deleting a vertex
of degree <= 1, replacing a degree-2 vertex by an edge between its two
neighbours, and merging parallel edges.  Applied until none is possible,
they leave a simple graph whose every vertex has degree >= 3 (or the empty
graph), planar exactly when the input is.

Every removed vertex is also *located* in the kernel: at the kernel vertex
its pendant part hangs from, or inside the kernel edge whose series-parallel
piece it was suppressed or merged into.  That makes one reduction serve
every edge later tried against the same graph: the graph plus an edge
(a, b) is planar exactly when the kernel plus an edge between the locations
of a and b is, an edge location being a new vertex that subdivides it.
When both ends fall on one location, or on a kernel edge and one of its
ends, or on the two ends of a kernel edge, the new edge only widens a piece
that reduces away: the kernel stays as it is, and so does the verdict.

A planar graph also stays planar under an edge between locations that
share a kernel neighbour x of degree 3, where the neighbours of a kernel
vertex are its kernel neighbours and those of a kernel edge are its two
ends.  Each location then lies on an edge at x: a kernel vertex u on the
edge x-u, a kernel edge on itself.  When the two edges are one, the new
edge widens a piece.  Otherwise they form a wedge at x: in every rotation
at x the three edges are pairwise consecutive, so in every embedding one
face runs along both edges and holds both locations, and the new edge fits
inside it.

Planarity is closed under minors, so a non-planar kernel plus an edge
between locations la and lb settles more edges than its own.  The closure
of a kernel vertex x is x and the kernel edges at x; that of a kernel edge
is the edge alone.  The graph plus any edge from closure(la) to closure(lb)
is non-planar, and stays so as edges are added: contracting each
subdividing vertex into its kernel vertex gives back the first graph.
"""

from __future__ import annotations

from collections.abc import Iterable


class PlanarityKernel:
    """Kernel of a simple graph given by its edges on arbitrary integer ids.

    `n` and `edges` are the kernel on compact ids 0..n-1, numbered in
    ascending order of the surviving input ids.
    """

    __slots__ = ("n", "edges", "_index", "_edge_pos", "_fwd", "_nbrs", "_closures")

    def __init__(self, edges: Iterable[tuple[int, int]]) -> None:
        nbrs: dict[int, set[int]] = {}
        for a, b in edges:
            if a in nbrs:
                nbrs[a].add(b)
            else:
                nbrs[a] = {b}
            if b in nbrs:
                nbrs[b].add(a)
            else:
                nbrs[b] = {a}
        # Where each removed vertex and edge went: a vertex id, an edge
        # (x, y) with x < y, or None once the whole component is gone.
        fwd: dict[object, object] = {}
        low = [v for v, s in nbrs.items() if len(s) <= 2]
        while low:
            v = low.pop()
            s = nbrs.get(v)
            if s is None:
                continue  # queued twice, already removed
            del nbrs[v]
            if len(s) == 2:
                x, y = s
                if x > y:
                    x, y = y, x
                to = (x, y)
                fwd[v] = to
                fwd[(x, v) if x < v else (v, x)] = to
                fwd[(y, v) if y < v else (v, y)] = to
                sx, sy = nbrs[x], nbrs[y]
                sx.discard(v)
                sy.discard(v)
                if y not in sx:
                    sx.add(y)
                    sy.add(x)
                    continue
                # The new edge x-y is parallel to an old one: merged, so both
                # ends lose a degree.
                if len(sx) <= 2:
                    low.append(x)
                if len(sy) <= 2:
                    low.append(y)
            elif s:
                (x,) = s
                fwd[v] = x
                fwd[(x, v) if x < v else (v, x)] = x
                sx = nbrs[x]
                sx.discard(v)
                if len(sx) <= 2:
                    low.append(x)
            else:
                fwd[v] = None
        verts = sorted(nbrs)
        index = {v: i for i, v in enumerate(verts)}
        kernel_edges = [(a, b) for a in verts for b in sorted(nbrs[a]) if a < b]
        self.n = len(verts)
        self.edges = [(index[a], index[b]) for a, b in kernel_edges]
        self._index = index
        self._edge_pos = {e: i for i, e in enumerate(kernel_edges)}
        self._fwd = fwd
        self._nbrs = nbrs  # the kernel's adjacency on input ids
        self._closures: dict[object, list[int]] = {}  # built at the first closure()

    def _locate(self, v: int) -> object:
        """Where input vertex v lies: a kernel vertex, a kernel edge, or None."""
        fwd = self._fwd
        path = []
        t: object = v
        while t in fwd:
            path.append(t)
            t = fwd[t]
        for p in path:
            fwd[p] = t
        return t

    def _widens_a_piece(self, la: object, lb: object) -> bool:
        """Whether an edge between two locations only adds to a part that
        reduces away (a pendant or series-parallel piece, or a whole
        component), and so leaves the kernel as it is."""
        if la is None or lb is None or la == lb:
            return True
        if type(la) is tuple:
            la, lb = lb, la
        if type(la) is tuple:
            return False  # two different kernel edges
        if type(lb) is tuple:
            return la in lb
        return lb in self._nbrs[la]

    def shares_a_wedge(self, a: int, b: int) -> bool:
        """Whether the locations of input vertices a and b share a kernel
        neighbour of degree 3, so that the input graph plus the edge (a, b)
        is planar when the input graph is."""
        nbrs = self._nbrs
        la, lb = self._locate(a), self._locate(b)
        if la is None or lb is None:
            return False
        around_a = la if type(la) is tuple else nbrs[la]
        around_b = lb if type(lb) is tuple else nbrs[lb]
        return any(len(nbrs[x]) == 3 for x in around_a if x in around_b)

    def plus_edge(self, a: int, b: int) -> tuple[int, list[tuple[int, int]]] | None:
        """Kernel (n, edges) of the input graph plus the edge (a, b), where a
        and b are input vertices; the subdividing vertices get the ids n and
        n + 1.  None when the edge leaves the kernel as it is."""
        la, lb = self._locate(a), self._locate(b)
        if self._widens_a_piece(la, lb):
            return None
        n, edges, index = self.n, self.edges.copy(), self._index
        ends = []
        for loc in (la, lb):
            if type(loc) is int:
                ends.append(index[loc])
            else:
                x, y = loc
                edges[self._edge_pos[loc]] = (index[x], n)
                edges.append((index[y], n))
                ends.append(n)
                n += 1
        edges.append((ends[0], ends[1]))
        return n, edges

    def closure(self, v: int) -> list[int]:
        """The input vertices located in the closure of v's location, which
        must be a kernel vertex or edge."""
        closures = self._closures
        if not closures:
            for u in [*self._index, *self._fwd]:
                if type(u) is int:
                    loc = self._locate(u)
                    for key in (loc, *loc) if type(loc) is tuple else (loc,):
                        closures.setdefault(key, []).append(u)
        return closures[self._locate(v)]
