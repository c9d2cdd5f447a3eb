"""Left-right planarity test with combinatorial embedding construction.

Implements the de Fraysseix-Rosenstiehl criterion in Brandes' formulation
("The Left-Right Planarity Test", 2009): a DFS orientation phase computing
lowpoints and nesting depths, a testing phase maintaining a stack of conflict
pairs of back-edge intervals, and an embedding phase that resolves the
left/right side of every back edge and orders each adjacency list by signed
nesting depth.

Neighbours and edge ids come from `graph.adjacency`.  Each edge is oriented
exactly once, in phase 1, so all per-edge state lives in lists indexed by
edge id.  Each phase's DFS runs on an explicit stack with a per-vertex index
of the next edge to scan.

This module is the embedding backend; planarity verdicts in hot paths come
from the independent edge-addition engine, and the two are cross-checked in
the test suite.
"""

from __future__ import annotations

from ..graph import adjacency

NIL = -1


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None


class _ConflictPair:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left if left is not None else _Interval()
        self.right = right if right is not None else _Interval()

    def swap(self) -> None:
        self.left, self.right = self.right, self.left


def lr_embedding(
    n: int,
    edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
) -> list[list[int]] | None:
    """Rotation system (per-vertex cyclic lists of edge ids) or None if non-planar."""
    m = len(edges)
    if n > 2 and m > 3 * n - 6:
        return None
    adj = adjacency(n, edges)

    height = [NIL] * n
    parent_edge = [NIL] * n
    tail = [NIL] * m
    head = [NIL] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    roots: list[int] = []

    # Phase 1: orient every edge away from the DFS root and compute lowpoints.
    # A tree edge is seen at its tail again once its child has finished.
    nxt = [0] * n
    for s in range(n):
        if height[s] != NIL:
            continue
        height[s] = 0
        roots.append(s)
        stack = [s]
        while stack:
            v = stack[-1]
            e = parent_edge[v]
            hv = height[v]
            adj_v = adj[v]
            i = nxt[v]
            while i < len(adj_v):
                w, f = adj_v[i]
                if tail[f] == NIL:
                    tail[f] = v
                    head[f] = w
                    lowpt[f] = lowpt2[f] = hv
                    if height[w] == NIL:
                        parent_edge[w] = f
                        height[w] = hv + 1
                        stack.append(w)
                        break
                    lowpt[f] = height[w]
                if tail[f] == v and e != NIL:
                    if lowpt[f] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[f])
                        lowpt[e] = lowpt[f]
                    elif lowpt[f] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[f])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[f])
                i += 1
            else:
                stack.pop()
            nxt[v] = i

    nesting_depth = [2 * lowpt[f] + (lowpt2[f] < height[tail[f]]) for f in range(m)]
    ordered = [
        sorted((f for _, f in adj_v if tail[f] == v), key=nesting_depth.__getitem__)
        for v, adj_v in enumerate(adj)
    ]

    # Phase 2: testing with conflict pairs.
    S: list[_ConflictPair] = []
    stack_bottom: list[_ConflictPair | None] = [None] * m
    lowpt_edge = [NIL] * m
    ref: list[int | None] = [None] * m
    side = [1] * m

    def conflicting(interval: _Interval, b: int) -> bool:
        return not interval.empty() and lowpt[interval.high] > lowpt[b]

    def lowest(pair: _ConflictPair) -> int:
        if pair.left.empty():
            return lowpt[pair.right.low]
        if pair.right.empty():
            return lowpt[pair.left.low]
        return min(lowpt[pair.left.low], lowpt[pair.right.low])

    def add_constraints(ei: int, e: int) -> bool:
        p = _ConflictPair()
        # Merge return edges of ei into p.right.
        while True:
            q = S.pop()
            if not q.left.empty():
                q.swap()
            if not q.left.empty():
                return False
            if lowpt[q.right.low] > lowpt[e]:
                if p.right.empty():
                    p.right.high = q.right.high
                else:
                    ref[p.right.low] = q.right.high
                p.right.low = q.right.low
            else:
                ref[q.right.low] = lowpt_edge[e]
            if (S[-1] if S else None) is stack_bottom[ei]:
                break
        # Merge conflicting return edges of earlier siblings into p.left.
        while conflicting(S[-1].left, ei) or conflicting(S[-1].right, ei):
            q = S.pop()
            if conflicting(q.right, ei):
                q.swap()
            if conflicting(q.right, ei):
                return False
            ref[p.right.low] = q.right.high
            if q.right.low is not None:
                p.right.low = q.right.low
            if p.left.empty():
                p.left.high = q.left.high
            else:
                ref[p.left.low] = q.left.high
            p.left.low = q.left.low
        if not (p.left.empty() and p.right.empty()):
            S.append(p)
        return True

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        while S and lowest(S[-1]) == height[u]:
            p = S.pop()
            if p.left.low is not None:
                side[p.left.low] = -1
        if S:
            p = S.pop()
            while p.left.high is not None and head[p.left.high] == u:
                p.left.high = ref[p.left.high]
            if p.left.high is None and p.left.low is not None:
                ref[p.left.low] = p.right.low
                side[p.left.low] = -1
                p.left.low = None
            while p.right.high is not None and head[p.right.high] == u:
                p.right.high = ref[p.right.high]
            if p.right.high is None and p.right.low is not None:
                ref[p.right.low] = p.left.low
                side[p.right.low] = -1
                p.right.low = None
            S.append(p)
        if lowpt[e] < height[u]:
            hl, hr = S[-1].left.high, S[-1].right.high
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    # After a child is popped, its parent resumes at the tree edge to it.
    nxt = [0] * n
    for s in roots:
        stack = [s]
        returned = False
        while stack:
            v = stack[-1]
            e = parent_edge[v]
            out_v = ordered[v]
            i = nxt[v]
            while i < len(out_v):
                f = out_v[i]
                if not returned:
                    stack_bottom[f] = S[-1] if S else None
                    if parent_edge[head[f]] == f:
                        stack.append(head[f])
                        break
                    lowpt_edge[f] = f
                    S.append(_ConflictPair(right=_Interval(f, f)))
                returned = False
                if lowpt[f] < height[v]:
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[f]
                    elif not add_constraints(f, e):
                        return None
                i += 1
            else:
                stack.pop()
                if e != NIL:
                    remove_back_edges(e)
                returned = True
            nxt[v] = i

    # Phase 3: embedding.  Resolve sides (compressing ref chains keeps their
    # products, so the order does not matter), re-sort by signed nesting depth.
    for f in range(m):
        chain: list[int] = []
        cur = f
        while ref[cur] is not None:
            chain.append(cur)
            cur = ref[cur]
        result = side[cur]
        for x in reversed(chain):
            side[x] *= result
            ref[x] = None
            result = side[x]
        nesting_depth[f] *= result
    for out_v in ordered:
        out_v.sort(key=nesting_depth.__getitem__)

    # Base rotations: each vertex's outgoing edges in sorted order; the DFS
    # inserts each incoming edge beside its tree edge or last left edge.
    rotations = [list(out_v) for out_v in ordered]
    left_ref = [NIL] * n
    right_ref = [NIL] * n
    nxt = [0] * n
    for s in roots:
        stack = [s]
        while stack:
            v = stack[-1]
            out_v = ordered[v]
            i = nxt[v]
            while i < len(out_v):
                f = out_v[i]
                i += 1
                w = head[f]
                if parent_edge[w] == f:
                    rotations[w].insert(0, f)
                    left_ref[v] = right_ref[v] = f
                    stack.append(w)
                    break
                rot = rotations[w]
                if side[f] == 1:
                    rot.insert(rot.index(right_ref[w]) + 1, f)
                else:
                    rot.insert(rot.index(left_ref[w]), f)
                    left_ref[w] = f
            else:
                stack.pop()
            nxt[v] = i

    return rotations
