"""Edge-addition planarity engine (Boyer-Myrvold style vertex addition).

Vertices are processed in reverse DFS order; at each step the tree edges to
the current vertex's children are embedded as singleton biconnected
components, then every backedge from the current vertex to a descendant is
embedded by walking down the external faces of the pertinent components,
merging them (with lazy orientation flips) as it goes.

Two modes:
  * strict: abort as soon as one backedge cannot be embedded (planarity test);
  * skip:   record the unembeddable backedge, keep going, and return the edge
            ids that were left out -- the embedded rest is a planar spanning
            subgraph of the input.

All per-vertex state lives in flat lists indexed by DFS index; virtual root
copies of a vertex (one per DFS child c) live at index n + c.  Rotation lists
are direction-agnostic doubly linked arc lists so that merging a flipped
component is O(1).  The engine answers reachability/embeddability only; the
combinatorial embedding itself is produced by the left-right embedder in
`_lr.py`, which keeps the two code paths independently checkable.
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
    if n == 0:
        return True, []
    if not skip_unembeddable and n >= 3 and m > 3 * n - 6:
        return False, []

    if adjacency is None:
        adjacency = build_adjacency(n, edges)

    # ------------------------------------------------------------------
    # DFS: indices, parents, lowpoints, least back ancestors, backedges.
    # Everything below works in DFS-index space.
    # ------------------------------------------------------------------
    dfi = [NIL] * n
    vertex_of = [0] * n
    parent = [NIL] * n
    parent_eid = [NIL] * n
    lowpoint = [0] * n
    least_anc = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    back_from: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    counter = 0
    roots_iter = root_order if root_order is not None else range(n)
    for r0 in roots_iter:
        if dfi[r0] != NIL:
            continue
        dfi[r0] = counter
        vertex_of[counter] = r0
        lowpoint[counter] = counter
        least_anc[counter] = counter
        counter += 1
        stack: list[tuple[int, int, int]] = [(r0, counter - 1, 0)]
        while stack:
            v_orig, v, idx = stack[-1]
            adj_v = adjacency[v_orig]
            moved = False
            while idx < len(adj_v):
                w_orig, eid = adj_v[idx]
                idx += 1
                if dfi[w_orig] == NIL:
                    w = counter
                    dfi[w_orig] = w
                    vertex_of[w] = w_orig
                    parent[w] = v
                    parent_eid[w] = eid
                    children[v].append(w)
                    lowpoint[w] = w
                    least_anc[w] = w
                    counter += 1
                    stack[-1] = (v_orig, v, idx)
                    stack.append((w_orig, w, 0))
                    moved = True
                    break
                w = dfi[w_orig]
                if w < v and eid != parent_eid[v]:
                    back_from[w].append((v, eid))
                    if w < least_anc[v]:
                        least_anc[v] = w
                    if w < lowpoint[v]:
                        lowpoint[v] = w
            if not moved:
                stack.pop()
                if stack:
                    p = stack[-1][1]
                    if lowpoint[v] < lowpoint[p]:
                        lowpoint[p] = lowpoint[v]

    # Separated-children lists per vertex, ascending by lowpoint (bucket sort).
    buckets: list[list[int]] = [[] for _ in range(n)]
    for c in range(n):
        if parent[c] != NIL:
            buckets[lowpoint[c]].append(c)
    child_next = [NIL] * n
    child_prev = [NIL] * n
    sep_head = [NIL] * n
    sep_tail = [NIL] * n
    for bucket in buckets:
        for c in bucket:
            p = parent[c]
            t = sep_tail[p]
            if t == NIL:
                sep_head[p] = c
            else:
                child_next[t] = c
                child_prev[c] = t
            sep_tail[p] = c

    # ------------------------------------------------------------------
    # Embedding state.
    # ------------------------------------------------------------------
    two_nv = 4 * n  # ends array: two slots per vertex/root
    ends = [NIL] * two_nv
    arc_n0: list[int] = []
    arc_n1: list[int] = []
    arc_target: list[int] = []
    arc_eid: list[int] = []
    merged = [False] * n
    visited = [NIL] * (2 * n)
    be_flag = [NIL] * n
    be_eid = [0] * n
    pert_roots: list[deque[int] | None] = [None] * n
    pert_child_stamp = [NIL] * n
    skipped: list[int] = []

    def new_arc_pair(src_a: int, tgt_a: int, eid: int) -> int:
        """Allocate twin arcs: returns arc in src_a's list targeting tgt_a."""
        a = len(arc_target)
        arc_target.append(tgt_a)
        arc_eid.append(eid)
        arc_n0.append(NIL)
        arc_n1.append(NIL)
        arc_target.append(src_a)
        arc_eid.append(eid)
        arc_n0.append(NIL)
        arc_n1.append(NIL)
        return a

    def attach(x: int, side: int, a: int) -> None:
        """Append arc a at end `side` of x's rotation list."""
        e = ends[2 * x + side]
        if e == NIL:
            ends[2 * x] = a
            ends[2 * x + 1] = a
            return
        if arc_n0[e] == NIL:
            arc_n0[e] = a
        else:
            arc_n1[e] = a
        if arc_n0[a] == NIL:
            arc_n0[a] = e
        else:
            arc_n1[a] = e
        ends[2 * x + side] = a

    def ext_succ(x: int, xin: int) -> tuple[int, int]:
        """Next vertex on the external face leaving x away from entry side."""
        a = ends[2 * x + 1 - xin]
        t = arc_target[a]
        if t >= n and merged[t - n]:
            t = parent[t - n]
        ta = a ^ 1
        if ends[2 * t] == ta:
            return t, 0
        if ends[2 * t + 1] == ta:
            return t, 1
        raise AssertionError("external face arc is not a rotation end")

    def ext_active(w: int, v: int) -> bool:
        if least_anc[w] < v:
            return True
        h = sep_head[w]
        return h != NIL and lowpoint[h] < v

    def pertinent(w: int, v: int) -> bool:
        if be_flag[w] == v:
            return True
        q = pert_roots[w]
        return bool(q)

    def sep_remove(c: int) -> None:
        p = parent[c]
        pr = child_prev[c]
        nx = child_next[c]
        if pr != NIL:
            child_next[pr] = nx
        else:
            sep_head[p] = nx
        if nx != NIL:
            child_prev[nx] = pr
        else:
            sep_tail[p] = pr

    def merge_bicomp(w: int, win: int, rr: int, rout: int) -> None:
        """Merge root rr (= w^c) into w, entered at side win, left via rout."""
        c = rr - n
        merged[c] = True
        q = pert_roots[w]
        if q:
            q.popleft()
        sep_remove(c)
        # The walkdown left rr through its rout-side end; that side of the
        # chunk is about to be enclosed, so it joins w's old end arc and the
        # far side becomes w's new external end.
        e_w = ends[2 * w + win]
        e_join = ends[2 * rr + rout]
        e_far = ends[2 * rr + 1 - rout]
        if e_w == NIL:
            ends[2 * w + win] = e_far
            ends[2 * w + 1 - win] = e_join
            return
        if arc_n0[e_w] == NIL:
            arc_n0[e_w] = e_join
        else:
            arc_n1[e_w] = e_join
        if arc_n0[e_join] == NIL:
            arc_n0[e_join] = e_w
        else:
            arc_n1[e_join] = e_w
        ends[2 * w + win] = e_far

    def embed_backedge(r: int, rside: int, w: int, win: int, eid: int) -> None:
        a = new_arc_pair(r, w, eid)
        attach(r, rside, a)
        attach(w, win, a ^ 1)

    # ------------------------------------------------------------------
    # Main loop: steps in decreasing DFS index.
    # ------------------------------------------------------------------
    step_pert_children: list[int] = []
    touched: list[int] = []

    for v in range(n - 1, -1, -1):
        # Embed tree edges to children as singleton bicomps rooted at v^c.
        for c in children[v]:
            r = n + c
            a = new_arc_pair(r, c, parent_eid[c])
            ends[2 * r] = a
            ends[2 * r + 1] = a
            ends[2 * c] = a ^ 1
            ends[2 * c + 1] = a ^ 1

        backs = back_from[v]
        if not backs:
            continue

        step_pert_children.clear()
        touched.clear()

        # Walkup: mark the pertinent bicomp chain for every backedge (v, w).
        for w0, eid in backs:
            be_flag[w0] = v
            be_eid[w0] = eid
            if visited[w0] == v:
                continue
            visited[w0] = v
            x, xin = w0, 1
            y, yin = w0, 0
            turn = 0
            while True:
                if turn == 0:
                    x, xin = ext_succ(x, xin)
                    t = x
                else:
                    y, yin = ext_succ(y, yin)
                    t = y
                turn ^= 1
                if t >= n:
                    if visited[t] == v:
                        break
                    visited[t] = v
                    c = t - n
                    u = parent[c]
                    if u == v:
                        if pert_child_stamp[c] != v:
                            pert_child_stamp[c] = v
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
                    x, xin = u, 1
                    y, yin = u, 0
                    turn = 0
                elif visited[t] == v:
                    break
                else:
                    visited[t] = v

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
                        embed_backedge(r, i, w, win, be_eid[w])
                        be_flag[w] = NIL
                    q = pert_roots[w]
                    if q:
                        rr = q[0]
                        # First active vertex in each direction from rr.
                        x, xin = ext_succ(rr, 1)
                        while not (pertinent(x, v) or ext_active(x, v)):
                            x, xin = ext_succ(x, xin)
                        y, yin = ext_succ(rr, 0)
                        while not (pertinent(y, v) or ext_active(y, v)):
                            y, yin = ext_succ(y, yin)
                        xi = not ext_active(x, v)
                        yi = not ext_active(y, v)
                        if xi:
                            nw, nwin, rout = x, xin, 0
                        elif yi:
                            nw, nwin, rout = y, yin, 1
                        elif pertinent(x, v):
                            nw, nwin, rout = x, xin, 0
                        elif pertinent(y, v):
                            nw, nwin, rout = y, yin, 1
                        else:
                            nw, nwin, rout = x, xin, 0
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
