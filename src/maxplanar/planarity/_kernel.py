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
that reduces away, and the kernel is tested as it is.
"""

from __future__ import annotations

from collections.abc import Iterable


class PlanarityKernel:
    """Kernel of a simple graph given by its edges on arbitrary integer ids.

    `n` and `edges` are the kernel on compact ids 0..n-1, numbered in
    ascending order of the surviving input ids.
    """

    __slots__ = ("n", "edges", "_index", "_edge_pos", "_fwd")

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
        return (la, lb) in self._edge_pos or (lb, la) in self._edge_pos

    def plus_edge(self, a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
        """Kernel (n, edges) of the input graph plus the edge (a, b), where a
        and b are input vertices; the subdividing vertices get the ids n and
        n + 1."""
        la, lb = self._locate(a), self._locate(b)
        if self._widens_a_piece(la, lb):
            return self.n, self.edges
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
