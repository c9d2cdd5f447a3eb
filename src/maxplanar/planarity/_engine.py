"""Edge-addition planarity engine (Boyer-Myrvold style vertex addition).

Vertices are processed in reverse DFS order; at each step the tree edges to
the current vertex's children are embedded as singleton biconnected
components, then every backedge from the current vertex to a descendant is
embedded by walking down the external faces of the pertinent components,
merging them as it goes.

Two modes:
  * strict: abort as soon as one backedge cannot be embedded (planarity test);
  * skip:   record the unembeddable backedge, keep going, and return the edge
            ids that were left out -- the embedded rest is a planar spanning
            subgraph of the input.

All per-vertex state lives in flat lists indexed by DFS index; virtual root
copies of a vertex (one per DFS child c) live at index n + c.  The engine
keeps no rotation system: of each vertex and root copy it keeps only its two
external-face arcs (`ends`), and of each arc only its target, which is all a
walk along an external face reads.  Each vertex's DFS children are sorted by
lowpoint, and `sep_at[v]` indexes v's first child whose bicomp is not yet
merged into v: external activity reads only that child's lowpoint.  The
engine answers embeddability only; the combinatorial embedding itself is
produced by the left-right embedder in `_lr.py`, which keeps the two code
paths independently checkable.

The walkup finds bicomp roots by union-find, not by walking external faces:
`up` (path halving) points a child c at its tree-edge root n + c, a merged
root at parent[c], the vertex it joined (or, once halved, further up), and
an unmerged root at itself, so it is also the one record of which roots are
merged: halving moves only entries that already point away.  The output is
that of a face walk, because a vertex of bicomp B is marked in a step only by
a walk that also marks B's root, so stopping at a marked root stops where a
face walk stops at a marked vertex.  Skip mode needs this: its unmerged
bicomps would otherwise be re-walked by every later walkup.

The walkdown skips two pieces of work whose outcome is already fixed.  A
root with one arc is a K2: an unmerged root gains arcs only from backedges
embedded at it as a step's top root, so its one arc is the tree edge to its
child c, c has no other arc, and c is pertinent because the walkup reached
the root through c.  Both external-face scans from such a root stop at c at
once, so the walk pushes the root and moves straight to c, entered at side
0.  And each of v's top roots n + c0 is a K2 when step v starts, since no
earlier step walks below c0, so both directions start at (c0, 0).  A
direction that embeds no edge changes no state, so when the root still has
one arc after direction 0, direction 1 would replay it and is not run.  Both
rules keep every decision, and so every output, of the full walk; skip mode
gains most, as its skipped backedges leave many tree edges unmerged.
"""

from __future__ import annotations

from collections import deque

from ..graph import adjacency as build_adjacency

NIL = -1


def edge_addition_run(
    n: int,
    edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
    *,
    root_order: list[int] | None = None,
    adjacency: list[list[tuple[int, int]]] | None = None,
    skip_unembeddable: bool = False,
) -> tuple[bool, list[int]]:
    """Run the embedder.

    Returns (planar, skipped_edge_ids):
      * strict mode: planar is the verdict; skipped is empty.
      * skip mode: planar is always True; skipped holds the edge ids that
        were not embedded.
    """
    m = len(edges)
    if not skip_unembeddable and n >= 3 and m > 3 * n - 6:
        return False, []

    if adjacency is None:
        adjacency = build_adjacency(n, edges)

    # ------------------------------------------------------------------
    # DFS: indices, parents, lowpoints, least back ancestors, backedges.
    # Everything below works in DFS-index space.
    # ------------------------------------------------------------------
    dfi = [NIL] * n
    parent = [NIL] * n
    parent_eid = [NIL] * n
    lowpoint = list(range(n))
    least_anc = list(range(n))
    children: list[list[int]] = [[] for _ in range(n)]
    back_from: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    counter = 0
    for r0 in root_order if root_order is not None else range(n):
        if dfi[r0] != NIL:
            continue
        dfi[r0] = counter
        stack = [(counter, iter(adjacency[r0]))]
        counter += 1
        while stack:
            v, it = stack[-1]
            for w_orig, eid in it:
                w = dfi[w_orig]
                if w == NIL:
                    w = dfi[w_orig] = counter
                    counter += 1
                    parent[w] = v
                    parent_eid[w] = eid
                    children[v].append(w)
                    stack.append((w, iter(adjacency[w_orig])))
                    break
                if w < v and eid != parent_eid[v]:
                    back_from[w].append((v, eid))
                    # lowpoint[v] <= least_anc[v] always, so only a new least
                    # ancestor can lower the lowpoint.
                    if w < least_anc[v]:
                        least_anc[v] = w
                        if w < lowpoint[v]:
                            lowpoint[v] = w
            else:
                stack.pop()
                p = parent[v]
                if p != NIL and lowpoint[v] < lowpoint[p]:
                    lowpoint[p] = lowpoint[v]

    # Children by ascending lowpoint; the stable sort keeps ties in DFS order.
    for ch in children:
        if len(ch) > 1:
            ch.sort(key=lowpoint.__getitem__)
    sep_at = [0] * n

    # ------------------------------------------------------------------
    # Embedding state.
    # ------------------------------------------------------------------
    ends = [NIL] * (4 * n)  # the two external-face arcs of each vertex/root
    arc_target: list[int] = []
    up = list(range(2 * n))
    visited = [NIL] * (2 * n)
    be_flag = [NIL] * n
    pert_roots: list[deque[int] | None] = [None] * n
    skipped: list[int] = []

    def ext_succ(x: int, xin: int) -> tuple[int, int]:
        """Next vertex on the external face leaving x away from entry side."""
        a = ends[2 * x + 1 - xin]
        t = arc_target[a]
        if t >= n and up[t] != t:  # a merged root; path halving may have moved up[t]
            t = parent[t - n]
        ta = a ^ 1
        if ends[2 * t] == ta:
            return t, 0
        if ends[2 * t + 1] == ta:
            return t, 1
        raise AssertionError("external face arc is not an end at its target")

    def ext_active(w: int, v: int) -> bool:
        if least_anc[w] < v:
            return True
        ch = children[w]
        i = sep_at[w]
        return i < len(ch) and lowpoint[ch[i]] < v

    def merge_bicomp(w: int, win: int, rr: int, rout: int) -> None:
        """Merge root rr (= w^c) into w, entered at side win, left via rout."""
        up[rr] = w
        q = pert_roots[w]
        if q:
            q.popleft()
        ch = children[w]  # the root of child c is n + c
        i = sep_at[w]
        while i < len(ch) and up[n + ch[i]] != n + ch[i]:
            i += 1
        sep_at[w] = i
        # The walkdown left rr through its rout-side end; that side of the
        # chunk is about to be enclosed, so the far side becomes w's new
        # external end.
        ends[2 * w + win] = ends[2 * rr + 1 - rout]

    # ------------------------------------------------------------------
    # Main loop: steps in decreasing DFS index.
    # ------------------------------------------------------------------
    step_pert_children: list[int] = []
    touched: list[int] = []

    for v in range(n - 1, -1, -1):
        # Embed tree edges to children as singleton bicomps rooted at v^c.
        for c in children[v]:
            r = n + c
            a = len(arc_target)  # twin arcs a (r to c) and a ^ 1 (c to r)
            arc_target += (c, r)
            ends[2 * r] = a
            ends[2 * r + 1] = a
            ends[2 * c] = a ^ 1
            ends[2 * c + 1] = a ^ 1
            up[c] = r

        backs = back_from[v]
        if not backs:
            continue

        step_pert_children.clear()
        touched.clear()

        # Walkup: mark the pertinent bicomp chain for every backedge (v, w),
        # hopping from each vertex to its bicomp's root through `up`.
        for w0, _ in backs:
            be_flag[w0] = v
            if visited[w0] == v:
                continue
            visited[w0] = v
            t = w0
            while True:
                while up[t] != t:
                    up[t] = up[up[t]]
                    t = up[t]
                if visited[t] == v:
                    break
                visited[t] = v
                c = t - n
                u = parent[c]
                if u == v:
                    step_pert_children.append(c)
                    break
                q = pert_roots[u]
                if q is None:
                    q = deque()
                    pert_roots[u] = q
                if lowpoint[c] < v:
                    q.append(t)
                else:
                    q.appendleft(t)
                touched.append(u)
                if visited[u] == v:
                    break
                visited[u] = v
                t = u

        # Walkdown from each pertinent root copy of v.
        for c0 in step_pert_children:
            r = n + c0
            blocked = False
            for i in (0, 1):
                stack_m: list[tuple[int, int, int, int]] = []
                w, win = ext_succ(r, 1 - i)
                while w != r:
                    if be_flag[w] == v:
                        while stack_m:
                            mw, mwin, mrr, mrout = stack_m.pop()
                            merge_bicomp(mw, mwin, mrr, mrout)
                        a = len(arc_target)
                        arc_target += (w, r)
                        ends[2 * r + i] = a
                        ends[2 * w + win] = a ^ 1
                        be_flag[w] = NIL
                    q = pert_roots[w]
                    if q:
                        rr = q[0]
                        if ends[2 * rr] == ends[2 * rr + 1]:
                            # K2 root: both directions lead to its pertinent
                            # child rr - n, entered at side 0.
                            stack_m.append((w, win, rr, 0))
                            w, win = rr - n, 0
                            continue
                        # First active vertex in each direction from rr.
                        x, xin = ext_succ(rr, 1)
                        while not (be_flag[x] == v or pert_roots[x] or ext_active(x, v)):
                            x, xin = ext_succ(x, xin)
                        y, yin = ext_succ(rr, 0)
                        while not (be_flag[y] == v or pert_roots[y] or ext_active(y, v)):
                            y, yin = ext_succ(y, yin)
                        # An internally active side first, then a pertinent one.
                        if not ext_active(x, v):
                            nw, nwin, rout = x, xin, 0
                        elif not ext_active(y, v):
                            nw, nwin, rout = y, yin, 1
                        elif be_flag[x] == v or pert_roots[x]:
                            nw, nwin, rout = x, xin, 0
                        else:  # y is pertinent; if neither is, the walk stops either way
                            nw, nwin, rout = y, yin, 1
                        stack_m.append((w, win, rr, rout))
                        w, win = nw, nwin
                    elif not ext_active(w, v):
                        w, win = ext_succ(w, win)
                    else:
                        break
                if stack_m and not skip_unembeddable:
                    # Blocked descent: pertinence below is unreachable from
                    # this side.  A planarity run can stop here; the skip run
                    # still tries the other direction.
                    blocked = True
                    break
                if ends[2 * r] == ends[2 * r + 1]:
                    # Nothing embedded, so nothing changed: the other
                    # direction starts at the same (c0, 0) and replays this.
                    break
            if blocked:
                break

        # Step end: account for unembedded backedges, drop stale pertinence.
        failed = False
        for w0, eid in backs:
            if be_flag[w0] == v:
                if skip_unembeddable:
                    skipped.append(eid)
                    be_flag[w0] = NIL
                else:
                    failed = True
                    break
        for u in touched:
            q = pert_roots[u]
            if q:
                q.clear()
        if failed:
            return False, []

    return True, skipped
