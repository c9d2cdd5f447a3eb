"""Left-right planarity test with combinatorial embedding construction.

Implements the de Fraysseix-Rosenstiehl criterion in Brandes' formulation:
a DFS orientation phase computing lowpoints and nesting depths, a testing
phase maintaining a stack of conflict pairs of back-edge intervals, and an
embedding phase that resolves the left/right side of every back edge and
orders each adjacency list by signed nesting depth.

This module is the embedding backend; planarity verdicts in hot paths come
from the independent edge-addition engine, and the two are cross-checked in
the test suite.
"""

from __future__ import annotations


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
    if n == 0:
        return []
    adj: list[list[int]] = [[] for _ in range(n)]
    eid_of: dict[tuple[int, int], int] = {}
    for eid, (a, b) in enumerate(edges):
        adj[a].append(b)
        adj[b].append(a)
        eid_of[(a, b)] = eid
        eid_of[(b, a)] = eid
    if n > 2 and m > 3 * n - 6:
        return None

    height: list[int | None] = [None] * n
    parent_edge: list[tuple[int, int] | None] = [None] * n
    lowpt: dict[tuple[int, int], int] = {}
    lowpt2: dict[tuple[int, int], int] = {}
    nesting_depth: dict[tuple[int, int], int] = {}
    oriented: set[tuple[int, int]] = set()

    roots: list[int] = []

    # Phase 1: DFS orientation (iterative).
    for s in range(n):
        if height[s] is not None:
            continue
        height[s] = 0
        roots.append(s)
        dfs_stack = [s]
        ind: dict[int, int] = {}
        skip_init: set[tuple[int, int]] = set()
        while dfs_stack:
            v = dfs_stack.pop()
            e = parent_edge[v]
            i = ind.get(v, 0)
            adj_v = adj[v]
            recurse = False
            while i < len(adj_v):
                w = adj_v[i]
                vw = (v, w)
                if vw not in skip_init:
                    if vw in oriented or (w, v) in oriented:
                        i += 1
                        continue
                    oriented.add(vw)
                    lowpt[vw] = height[v]
                    lowpt2[vw] = height[v]
                    if height[w] is None:
                        parent_edge[w] = vw
                        height[w] = height[v] + 1
                        ind[v] = i
                        skip_init.add(vw)
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        recurse = True
                        break
                    lowpt[vw] = height[w]
                nesting_depth[vw] = 2 * lowpt[vw]
                if lowpt2[vw] < height[v]:
                    nesting_depth[vw] += 1
                if e is not None:
                    if lowpt[vw] < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = lowpt[vw]
                    elif lowpt[vw] > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], lowpt[vw])
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1
            if not recurse:
                ind[v] = i

    ordered_adjs: list[list[int]] = [
        sorted(
            (w for w in adj_v if (v, w) in oriented),
            key=lambda w, _v=v: nesting_depth[(_v, w)],
        )
        for v, adj_v in enumerate(adj)
    ]

    # Phase 2: testing with conflict pairs.
    S: list[_ConflictPair] = []
    stack_bottom: dict[tuple[int, int], _ConflictPair | None] = {}
    lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}
    ref: dict[tuple[int, int], tuple[int, int] | None] = {}
    side: dict[tuple[int, int], int] = {e: 1 for e in oriented}

    def top() -> _ConflictPair | None:
        return S[-1] if S else None

    def conflicting(interval: _Interval, b: tuple[int, int]) -> bool:
        return not interval.empty() and lowpt[interval.high] > lowpt[b]

    def lowest(pair: _ConflictPair) -> int:
        if pair.left.empty():
            return lowpt[pair.right.low]
        if pair.right.empty():
            return lowpt[pair.left.low]
        return min(lowpt[pair.left.low], lowpt[pair.right.low])

    def add_constraints(ei: tuple[int, int], e: tuple[int, int]) -> bool:
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
            if top() is stack_bottom[ei]:
                break
        # Merge conflicting return edges of earlier siblings into p.left.
        while conflicting(top().left, ei) or conflicting(top().right, ei):
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

    def remove_back_edges(e: tuple[int, int]) -> None:
        u = e[0]
        while S and lowest(S[-1]) == height[u]:
            p = S.pop()
            if p.left.low is not None:
                side[p.left.low] = -1
        if S:
            p = S.pop()
            while p.left.high is not None and p.left.high[1] == u:
                p.left.high = ref.get(p.left.high)
            if p.left.high is None and p.left.low is not None:
                ref[p.left.low] = p.right.low
                side[p.left.low] = -1
                p.left.low = None
            while p.right.high is not None and p.right.high[1] == u:
                p.right.high = ref.get(p.right.high)
            if p.right.high is None and p.right.low is not None:
                ref[p.right.low] = p.left.low
                side[p.right.low] = -1
                p.right.low = None
            S.append(p)
        if lowpt[e] < height[u]:
            tp = S[-1]
            hl = tp.left.high
            hr = tp.right.high
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    for s in roots:
        dfs_stack = [s]
        ind2: dict[int, int] = {}
        skip_init2: set[tuple[int, int]] = set()
        while dfs_stack:
            v = dfs_stack.pop()
            e = parent_edge[v]
            i = ind2.get(v, 0)
            oav = ordered_adjs[v]
            skip_final = False
            while i < len(oav):
                w = oav[i]
                ei = (v, w)
                if ei not in skip_init2:
                    stack_bottom[ei] = top()
                    if ei == parent_edge[w]:
                        ind2[v] = i
                        skip_init2.add(ei)
                        dfs_stack.append(v)
                        dfs_stack.append(w)
                        skip_final = True
                        break
                    lowpt_edge[ei] = ei
                    S.append(_ConflictPair(right=_Interval(ei, ei)))
                if lowpt[ei] < height[v]:
                    if w == oav[0]:
                        lowpt_edge[e] = lowpt_edge[ei]
                    else:
                        if not add_constraints(ei, e):
                            return None
                i += 1
            if not skip_final:
                ind2[v] = i
                if e is not None:
                    remove_back_edges(e)

    # Phase 3: embedding.  Resolve sides, re-sort by signed nesting depth.
    def resolved_side(e: tuple[int, int]) -> int:
        chain: list[tuple[int, int]] = []
        cur = e
        while ref.get(cur) is not None:
            chain.append(cur)
            cur = ref[cur]
        result = side[cur]
        for x in reversed(chain):
            side[x] = side[x] * result
            ref[x] = None
            result = side[x]
        return result

    for e in oriented:
        nesting_depth[e] *= resolved_side(e)
    for v in range(n):
        ordered_adjs[v] = sorted(
            ordered_adjs[v], key=lambda w, _v=v: nesting_depth[(_v, w)]
        )

    # Base rotations: each vertex's outgoing oriented edges in sorted order.
    rotations: list[list[int]] = [list(oav) for oav in ordered_adjs]
    left_ref: list[int | None] = [None] * n
    right_ref: list[int | None] = [None] * n

    for s in roots:
        dfs_stack = [s]
        ind3: dict[int, int] = {}
        while dfs_stack:
            v = dfs_stack.pop()
            i = ind3.get(v, 0)
            oav = ordered_adjs[v]
            recurse = False
            while i < len(oav):
                w = oav[i]
                i += 1
                ei = (v, w)
                if ei == parent_edge[w]:
                    rotations[w].insert(0, v)
                    left_ref[v] = w
                    right_ref[v] = w
                    ind3[v] = i
                    dfs_stack.append(v)
                    dfs_stack.append(w)
                    recurse = True
                    break
                if side[ei] == 1:
                    pos = rotations[w].index(right_ref[w])
                    rotations[w].insert(pos + 1, v)
                else:
                    pos = rotations[w].index(left_ref[w])
                    rotations[w].insert(pos, v)
                    left_ref[w] = v
            if not recurse:
                ind3[v] = i

    return [[eid_of[(v, w)] for w in rotations[v]] for v in range(n)]
