"""Fixed-embedding planarization: embed a planar subgraph once, then route
every deferred edge along a shortest face path, replacing each crossed edge
by a degree-4 dummy vertex.

The routing structure is the face-adjacency (dual) graph of the current
planarization: faces sharing an edge are adjacent at cost 1 (crossing that
edge); the search starts from all faces incident to one endpoint and stops
at the first face incident to the other.  No postprocessing, no embedding
changes: this is the simplest insertion scheme, which is exactly what makes
the choice of the starting subgraph matter.

Every directed arc is an integer: a new host edge h gets arc 2*h + s leaving
its endpoint s, so an arc's twin is `a ^ 1` and the edge it crosses `a >> 1`.
Per arc, lists hold its tail, its face and its index in the tail's rotation
(a list of outgoing arcs).  Splitting a crossed edge keeps its two arc ids
and gives the far one the dummy as its tail.  Faces are kept in the
canonical order of their least arc, (tail, index in the tail's rotation):
an insertion only inserts arcs into rotations, which shifts indices but
never reorders the arcs already there, so faces kept across insertions
route exactly like a fresh trace.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import DisjointSets, Graph
from .heuristics import check_int
from .planarity._lr import lr_embedding
from .planarity.types import Embedding, NonPlanarStartError, arc_rotations, trace_faces


@dataclass(frozen=True)
class PlanarizedGraph:
    """Planar host with dummy vertices standing in for crossings."""

    host: Graph
    dummy_count: int
    embedding: Embedding
    origin_map: tuple[int, ...]  # host edge id -> edge id of the original graph
    original_vertex_count: int

    def recover_original(self) -> Graph:
        """Contract all dummies: the graph this planarization represents."""
        groups: dict[int, list[tuple[int, int]]] = {}
        for hid, orig in enumerate(self.origin_map):
            groups.setdefault(orig, []).append(self.host.edges[hid])
        n = self.original_vertex_count
        out: list[tuple[int, int]] = []
        for orig in sorted(groups):
            deg = Counter(v for edge in groups[orig] for v in edge)
            ends = sorted(v for v, d in deg.items() if d == 1)
            if len(ends) != 2 or ends[0] >= n or ends[1] >= n:
                raise AssertionError(f"origin {orig} does not contract to an edge")
            out.append((ends[0], ends[1]))
        return Graph(n, tuple(out))


def _trace_faces(
    starts: list[int],
    rot: list[list[int]],
    tail: list[int],
    arc_pos: list[int],
    faces: list[list[int]],
    arc_face: list[int],
    free: list[int],
) -> None:
    """Trace the faces through the arcs `starts` into faces / arc_face.

    Each face is stored rotated to begin at its least arc, (tail, arc_pos),
    and takes an id from `free` if there is one.
    """
    k = len(tail)  # exceeds every rotation index: keys order arcs by (tail, arc_pos)
    for face in trace_faces(rot, tail, arc_pos, starts):
        keys = [tail[a] * k + arc_pos[a] for a in face]
        i = keys.index(min(keys))
        face = face[i:] + face[:i]
        if free:
            fid = free.pop()
            faces[fid] = face
        else:
            fid = len(faces)
            faces.append(face)
        for a in face:
            arc_face[a] = fid


def _route(
    sources: list[int], targets: set[int], faces: list[list[int]], arc_face: list[int]
) -> tuple[list[int], list[int]]:
    """Fewest-crossing face path from a source face to a target face.

    Breadth-first search in the dual graph, sources in the given order and a
    face's neighbours in its arc order: the path ends at the target face that
    is discovered first.  Returns the faces on the path and, per step, the
    arc crossed, which lies on the face the step leaves.
    """
    seen = [False] * len(faces)
    pred = [-1] * len(faces)  # face -> arc crossed into it
    for f in sources:
        seen[f] = True
    end = next((f for f in sources if f in targets), -1)
    queue = list(sources)  # read while it grows: breadth-first order
    for fid in queue:
        if end >= 0:
            break
        for a in faces[fid]:
            other = arc_face[a ^ 1]
            if not seen[other]:
                seen[other] = True
                pred[other] = a
                if other in targets:
                    end = other
                    break
                queue.append(other)
    if end < 0:
        raise AssertionError("routing failed inside one component")
    path, crossed = [end], []
    while (a := pred[path[-1]]) >= 0:
        crossed.append(a)
        path.append(arc_face[a])
    return path[::-1], crossed[::-1]


def insert_edges_fixed(
    g: Graph, kept: Iterable[int], seed: int, shuffle: bool = True
) -> PlanarizedGraph:
    """Insert every edge outside `kept` (ids read by `Graph.check_edge_set`)
    into a fixed embedding of the subgraph on `kept`.

    Deferred edges are processed in seed-shuffled order (edge-id order with
    shuffle=False); each is routed with the fewest crossings available in the
    planarization as it stands, ties broken by the canonical face order
    (least arc first).  Faces are traced once; an insertion re-traces only
    the faces it changes.
    """
    check_int(seed, "seed", 0)
    kept_ids = sorted(g.check_edge_set(kept))
    kept = frozenset(kept_ids)
    n = g.vertex_count
    sub_edges = [g.edges[e] for e in kept_ids]
    rotations = lr_embedding(n, sub_edges)
    if rotations is None:
        raise NonPlanarStartError("subgraph to planarize is not planar")

    host_edges: list[tuple[int, int]] = list(sub_edges)
    origin: list[int] = list(kept_ids)
    components = DisjointSets(n)
    for a, b in sub_edges:
        components.union(a, b)

    rot, tail, arc_pos = arc_rotations(rotations, host_edges)
    faces: list[list[int]] = []
    arc_face = [0] * len(tail)
    free: list[int] = []  # ids of faces that an insertion destroyed
    _trace_faces([a for r in rot for a in r], rot, tail, arc_pos, faces, arc_face, free)

    def corner(fid: int, x: int) -> int:
        """Rotation index at x where an edge entering face fid is inserted:
        that of the first arc leaving x after the face's least arc."""
        face = faces[fid]
        return next(arc_pos[a] for a in face[1:] + face[:1] if tail[a] == x)

    def add_edge(edge: tuple[int, int], orig_eid: int) -> int:
        hid = len(host_edges)
        host_edges.append(edge)
        origin.append(orig_eid)
        tail.extend(edge)
        arc_pos.extend((0, 0))
        arc_face.extend((0, 0))
        return hid

    deferred = [e for e in range(len(g.edges)) if e not in kept]
    if shuffle:
        rng = random.Random(seed)
        rng.shuffle(deferred)

    for orig_eid in deferred:
        u, v = g.edges[orig_eid]
        if components.union(u, v):
            # Components can always be drawn into a common face: no crossing.
            # Appending closes the faces at the corners before u's and v's
            # first edges into one face.
            free += [arc_face[rot[x][0]] for x in (u, v) if rot[x]]
            hid = add_edge((u, v), orig_eid)
            for x, a in ((u, 2 * hid), (v, 2 * hid + 1)):
                arc_pos[a] = len(rot[x])
                rot[x].append(a)
            _trace_faces([2 * hid], rot, tail, arc_pos, faces, arc_face, free)
            continue

        sources = sorted(  # by least arc
            {arc_face[a] for a in rot[u]}, key=lambda f: (tail[faces[f][0]], arc_pos[faces[f][0]])
        )
        targets = {arc_face[a] for a in rot[v]}
        path_faces, crossed = _route(sources, targets, faces, arc_face)

        u_idx = corner(path_faces[0], u)
        v_idx = corner(path_faces[-1], v)

        # Split each crossed edge c = (near, far) at a dummy d: c keeps both
        # arc ids and now ends at d, and the new edge (d, far) takes the far
        # arc's place in far's rotation, so no index there shifts.
        points = [u]
        toward_far: list[int] = []
        for a in crossed:
            c, f = a >> 1, a ^ 1
            far = tail[f]
            d = len(rot)
            host_edges[c] = (tail[a], d)
            hid = add_edge((d, far), origin[c])
            rot[far][arc_pos[f]] = 2 * hid + 1
            arc_pos[2 * hid + 1] = arc_pos[f]
            tail[f] = d
            rot.append([])  # filled below
            points.append(d)
            toward_far.append(hid)
        points.append(v)

        segs = [add_edge((p, q), orig_eid) for p, q in zip(points, points[1:])]

        # Rotations: corner inserts at the endpoints, alternating order at
        # each dummy so the two original edges cross there.
        for i, a in enumerate(crossed):
            d = points[i + 1]
            rot[d] = [a ^ 1, 2 * segs[i] + 1, 2 * toward_far[i], 2 * segs[i + 1]]
            for j, b in enumerate(rot[d]):
                arc_pos[b] = j
        for x, idx, a in ((u, u_idx, 2 * segs[0]), (v, v_idx, 2 * segs[-1] + 1)):
            r = rot[x]
            r.insert(idx, a)
            for j in range(idx, len(r)):
                arc_pos[r[j]] = j

        # The new path cuts each face on the route in two; every resulting
        # face holds one side of one segment, and no other face changed.
        free += path_faces
        starts = [a for hid in segs for a in (2 * hid, 2 * hid + 1)]
        _trace_faces(starts, rot, tail, arc_pos, faces, arc_face, free)

    host = Graph(len(rot), tuple(host_edges))
    emb = Embedding(tuple(tuple(a >> 1 for a in r) for r in rot))
    return PlanarizedGraph(
        host=host,
        dummy_count=len(rot) - n,
        embedding=emb,
        origin_map=tuple(origin),
        original_vertex_count=n,
    )
