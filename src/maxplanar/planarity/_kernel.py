"""Planarity kernel: the smallest graph the reductions below leave behind.

Three reductions preserve planarity in both directions: deleting a vertex
of degree <= 1, replacing a degree-2 vertex by an edge between its two
neighbours, and merging parallel edges.  Applied until none is possible,
they leave a simple graph whose every vertex has degree >= 3 (or the empty
graph), planar exactly when the input is.

Every removed vertex is also *located* in the kernel: at the kernel vertex
its pendant part hangs from, or inside the kernel edge whose series-parallel
piece it was suppressed or merged into, or off the kernel when its whole
component reduced away.  That makes one reduction serve every edge later tried
against the same graph: the graph plus an edge (a, b) is planar exactly
when the kernel plus an edge between the locations of a and b is, an edge
location being a new vertex that subdivides it.  When both ends fall on one
location, on a kernel edge and one of its ends, or on the two ends of a
kernel edge, the edge lies within one piece and its terminals, which with a
virtual terminal edge have no K4 minor.  One edge more keeps that planar
(K5 - e and K3,3 - e have K4 minors), and its 2-sum with a planar kernel is
planar: the verdict stays, though the kernel may grow.

No reduction disconnects what remains, so each connected part of the kernel
is the kernel of one component of the input.  An edge between two parts, a
vertex off the kernel counting as a part of its own, is a bridge, and keeps
a planar graph planar: embed each side with its end on the outer face.
Within one part, that part's kernel plus the edge decides the verdict once
the other parts are planar.

A planar graph also stays planar under an edge between locations that
share a kernel neighbour x of degree 3, where the neighbours of a kernel
vertex are its kernel neighbours and those of a kernel edge are its two
ends.  Each location then lies on an edge at x: a kernel vertex u on the
edge x-u, a kernel edge on itself.  When the two edges are one, the new
edge lies within one piece.  Otherwise they form a wedge at x: in every
rotation at x the three edges are pairwise consecutive, so in every
embedding one face runs along both edges and holds both locations, and the
new edge fits inside it.

Planarity is closed under minors, so a non-planar kernel plus an edge
between locations la and lb settles more edges than its own.  The closure
of a kernel vertex x is x and the kernel edges at x; that of a kernel edge
is the edge alone.  The graph plus any edge from closure(la) to closure(lb)
is non-planar, and stays so as edges are added: contracting each
subdividing vertex into its kernel vertex gives back the first graph.

`add` keeps the kernel in place, as on-line SPQR trees do (Di Battista and
Tamassia, Algorithmica 15, 1996): no kernel vertex loses degree when an edge
is added, so only the pieces at its ends are put back and reduced again.
An edge between two parts that reduced away entirely puts back neither: a
bridge adds no K4 minor, so the joined part reduces away too.
"""

from __future__ import annotations

from collections.abc import Iterable


class PlanarityKernel:
    """Kernel of a simple graph given by its edges on arbitrary integer ids,
    kept in place as edges are added.

    `n` and `edges` are the kernel on compact ids 0..n-1, numbered in
    ascending order of the surviving input ids.
    """

    __slots__ = ("_adj", "_nbrs", "_fwd", "_members", "_parts")

    def __init__(self, edges: Iterable[tuple[int, int]]) -> None:
        self._adj: dict[int, set[int]] = {}  # the input graph
        self._nbrs: dict[int, set[int]] = {}  # the kernel's adjacency on input ids
        # Where each removed vertex and edge went: a vertex id or an edge (x, y)
        # with x < y; none for the last vertex of a component that reduced
        # away.  An edge put back may keep a stale entry: suppression clears
        # it before anything is sent there again.
        self._fwd: dict[object, object] = {}
        # Per location or vertex not yet removed: the removed vertices there.
        self._members: dict[object, list[int]] = {}
        self._parts: dict[int, tuple] = {}  # per kernel vertex: its part's (index, edges)
        self.add(edges)

    n = property(lambda self: len(self._nbrs))
    edges = property(lambda self: self._compact(self._nbrs)[1])

    def add(self, edges: Iterable[tuple[int, int]]) -> None:
        """Make this the kernel of the input graph plus `edges`: put back the
        pieces at their ends, add the edges, and reduce what was put back.
        An edge between two parts that reduced away entirely, a vertex new to
        the input counting as one, only hangs the smaller part from the
        larger's last vertex: joined by a bridge, they still reduce away."""
        adj, nbrs, fwd, members = self._adj, self._nbrs, self._fwd, self._members
        low: list[int] = []  # vertices put back or new; removed if degree <= 2
        for a, b in edges:
            ra, rb = self._locate(a), self._locate(b)  # a new vertex is its own
            if ra != rb and type(ra) is type(rb) is int and ra not in nbrs and rb not in nbrs:
                if len(members.get(ra, ())) < len(members.get(rb, ())):
                    ra, rb = rb, ra
                members.setdefault(ra, [ra]).extend(members.pop(rb, [rb]))
                fwd[rb] = ra
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
                continue
            for v in (a, b):
                if v not in adj:
                    adj[v], nbrs[v] = set(), set()
                    low.append(v)
                elif v not in nbrs:
                    # Put back v's piece; its kernel edge goes unless an input edge.
                    loc = self._locate(v)
                    if type(loc) is tuple and loc[1] not in adj[loc[0]]:
                        nbrs[loc[0]].discard(loc[1])
                        nbrs[loc[1]].discard(loc[0])
                    got = members.pop(loc)
                    nbrs.update((m, set(adj[m])) for m in got)
                    for m in got:
                        fwd.pop(m, None)
                        for t in adj[m]:
                            nbrs[t].add(m)
                    low += got
            adj[a].add(b)
            adj[b].add(a)
            nbrs[a].add(b)
            nbrs[b].add(a)
        while low:
            v = low.pop()
            s = nbrs.get(v)
            if s is None or len(s) > 2:
                continue  # already removed, or not reducible
            del nbrs[v]
            if len(s) == 2:
                x, y = s
                to: object = (x, y) if x < y else (y, x)
                x, y = to
                fwd.pop(to, None)  # x-y is a kernel edge from here on
                ex, ey = (x, v) if x < v else (v, x), (y, v) if y < v else (v, y)
                fwd[v] = fwd[ex] = fwd[ey] = to
                keys: tuple = (to, v, ex, ey)
                sx, sy = nbrs[x], nbrs[y]
                sx.discard(v)
                sy.discard(v)
                if y not in sx:
                    sx.add(y)
                    sy.add(x)
                else:
                    # The new edge x-y is parallel to an old one: merged, so
                    # both ends lose a degree.
                    low += (x, y)
            elif s:
                (to,) = s
                ex = (to, v) if to < v else (v, to)
                fwd[v] = fwd[ex] = to
                keys = (to, v, ex)
                nbrs[to].discard(v)
                low.append(to)
            else:
                to, keys = v, (v,)
            # v, and what lay at v or its edges, now lie at `to`.
            big = [v]
            for k in keys:
                part = members.pop(k, ())
                if len(part) > len(big):
                    big, part = part, big
                big += part
            members[to] = big
        self._parts = {}

    def _compact(self, verts: Iterable[int]) -> tuple[dict[int, int], list[tuple[int, int]]]:
        """The kernel on `verts`, a union of its parts, on compact ids: (index, edges)."""
        index = {v: i for i, v in enumerate(sorted(verts))}
        return index, [(index[a], index[b]) for a in index for b in sorted(self._nbrs[a]) if a < b]

    def _part(self, v: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
        """The connected part of the kernel at kernel vertex v, compacted."""
        if v not in self._parts:
            part, todo = {v}, [v]
            for u in todo:  # todo grows as it is read
                more = self._nbrs[u] - part
                part |= more
                todo += more
            self._parts.update(dict.fromkeys(part, self._compact(part)))
        return self._parts[v]

    def _locate(self, v: int) -> object:
        """Where input vertex v lies: a kernel vertex, a kernel edge, or the
        last vertex of its component when that reduced away entirely; v
        itself when new to the input."""
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
        """Whether an edge between two locations on the kernel lies within one
        piece that reduces away (a pendant or series-parallel piece with its
        terminals), so that a planar graph stays planar."""
        if type(la) is tuple:
            la, lb = lb, la
        if type(lb) is tuple:
            return la == lb or la in lb  # a kernel edge is no end of another
        return la == lb or lb in self._nbrs[la]

    def shares_a_wedge(self, a: int, b: int) -> bool:
        """Whether the locations of input vertices a and b share a kernel
        neighbour of degree 3, so that the input graph plus the edge (a, b)
        is planar when the input graph is."""
        nbrs = self._nbrs
        la, lb = self._locate(a), self._locate(b)
        around_a = la if type(la) is tuple else nbrs.get(la)
        around_b = lb if type(lb) is tuple else nbrs.get(lb)
        if around_a is None or around_b is None:
            return False
        return any(len(nbrs[x]) == 3 for x in around_a if x in around_b)

    def plus_edge(self, a: int, b: int) -> tuple[int, list[tuple[int, int]]] | None:
        """Kernel (n, edges) of the part of the input graph at the input
        vertices a and b, plus the edge (a, b); the subdividing vertices get
        the ids n and n + 1.  None when the edge joins two parts, a vertex off
        the kernel counting as one, or lies within one piece: a planar input
        graph stays planar, though the kernel may grow."""
        la, lb = self._locate(a), self._locate(b)
        va, vb = (loc[0] if type(loc) is tuple else loc for loc in (la, lb))
        if va not in self._nbrs or vb not in self._nbrs or self._widens_a_piece(la, lb):
            return None
        index, edges = self._part(va)
        if vb not in index:
            return None  # a bridge between two kernel parts
        n, edges = len(index), edges.copy()
        ends = []
        for loc in (la, lb):
            if type(loc) is int:
                ends.append(index[loc])
            else:
                x, y = index[loc[0]], index[loc[1]]
                edges[edges.index((x, y))] = (x, n)
                edges.append((y, n))
                ends.append(n)
                n += 1
        edges.append((ends[0], ends[1]))
        return n, edges

    def closure(self, v: int) -> list[int]:
        """The input vertices located in the closure of v's location, which
        must be a kernel vertex or edge."""
        members = self._members
        loc = self._locate(v)
        if type(loc) is tuple:
            return members.get(loc, [])
        out = [loc, *members.get(loc, ())]
        for w in self._nbrs[loc]:
            out += members.get((loc, w) if loc < w else (w, loc), ())
        return out
