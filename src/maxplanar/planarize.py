"""Fixed-embedding planarization: embed a planar subgraph once, then route
every deferred edge along a shortest face path, replacing each crossed edge
by a degree-4 dummy vertex.

The routing structure is the face-adjacency (dual) graph of the current
planarization: faces sharing an edge are adjacent at cost 1 (crossing that
edge); the search starts from all faces incident to one endpoint and stops
at the first face incident to the other.  No postprocessing, no embedding
changes: this is the simplest insertion scheme, which is exactly what makes
the choice of the starting subgraph matter.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .graph import DisjointSets, EdgeSet, Graph
from .heuristics import SubgraphResult
from .planarity._lr import lr_embedding
from .planarity.types import (
    Embedding,
    NonPlanarStartError,
    rotation_positions,
    trace_faces,
)


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
            deg: dict[int, int] = {}
            for a, b in groups[orig]:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            ends = sorted(v for v, d in deg.items() if d == 1)
            if len(groups[orig]) == 1:
                a, b = groups[orig][0]
                ends = sorted((a, b))
            if len(ends) != 2 or ends[0] >= n or ends[1] >= n:
                raise AssertionError(f"origin {orig} does not contract to an edge")
            out.append((ends[0], ends[1]))
        return Graph(n, tuple(out))


def _arc_key(pos: list[dict[int, int]], arc: tuple[int, int]) -> tuple[int, int]:
    """Canonical arc order: (tail, index of the edge in the tail's rotation)."""
    tail, eid = arc
    return (tail, pos[tail][eid])


def _trace_faces(
    starts: list[tuple[int, int]],
    rotations: list[list[int]],
    pos: list[dict[int, int]],
    host_edges: list[tuple[int, int]],
    faces: list[list[tuple[int, int]]],
    arc_face: dict[tuple[int, int], int],
    free: list[int],
) -> None:
    """Trace the faces through `starts` into faces / arc_face.

    Each face is stored rotated to begin at its least arc (_arc_key) and
    takes an id from `free` if there is one.  Routing reads faces only
    through that arc order, so faces kept across insertions route like a
    fresh trace: an insertion shifts a vertex's arc indices, never their order.
    """
    for face in trace_faces(rotations, pos, host_edges, starts):
        i = face.index(min(face, key=lambda arc: _arc_key(pos, arc)))
        face = face[i:] + face[:i]
        if free:
            fid = free.pop()
            faces[fid] = face
        else:
            fid = len(faces)
            faces.append(face)
        for arc in face:
            arc_face[arc] = fid


def _route(
    sources: list[int],
    targets: set[int],
    faces: list[list[tuple[int, int]]],
    arc_face: dict[tuple[int, int], int],
) -> tuple[list[int], list[int]]:
    """Fewest-crossing face path from a source face to a target face.

    Breadth-first search in the dual graph, sources in the given order and a
    face's neighbours in its arc order: the path ends at the target face that
    is discovered first.  Returns the faces on the path and the edges it
    crosses.
    """
    pred: dict[int, tuple[int, int]] = {}
    end = next((f for f in sources if f in targets), -1)
    seen = set(sources)
    queue = deque(sources)
    while end < 0 and queue:
        fid = queue.popleft()
        face = faces[fid]
        # The head of an arc is the tail of the next arc on its face.
        for (_, hid), (head, _) in zip(face, face[1:] + face[:1]):
            other = arc_face[(head, hid)]
            if other not in seen:
                seen.add(other)
                pred[other] = (fid, hid)
                if other in targets:
                    end = other
                    break
                queue.append(other)
    if end < 0:
        raise AssertionError("routing failed inside one component")
    path = [end]
    crossed: list[int] = []
    while path[-1] in pred:
        prev_fid, via = pred[path[-1]]
        crossed.append(via)
        path.append(prev_fid)
    path.reverse()
    crossed.reverse()
    return path, crossed


def insert_edges_fixed(
    g: Graph, sub: SubgraphResult | EdgeSet, seed: int, shuffle: bool = True
) -> PlanarizedGraph:
    """Insert all non-subgraph edges into a fixed embedding of the subgraph.

    Deferred edges are processed in seed-shuffled order (edge-id order with
    shuffle=False); each is routed with the fewest crossings available in the
    planarization as it stands, ties broken by the canonical face order
    (least arc first).  Faces are traced once; an insertion re-traces only
    the faces it changes.
    """
    kept = sub.kept if isinstance(sub, SubgraphResult) else frozenset(sub)
    g.check_edge_set(kept)
    n = g.vertex_count
    kept_ids = sorted(kept)
    sub_edges = [g.edges[e] for e in kept_ids]
    rotations = lr_embedding(n, sub_edges)
    if rotations is None:
        raise NonPlanarStartError("subgraph to planarize is not planar")

    host_edges: list[tuple[int, int]] = list(sub_edges)
    origin: list[int] = list(kept_ids)
    components = DisjointSets(n)
    for a, b in sub_edges:
        components.union(a, b)

    pos = rotation_positions(rotations)
    faces: list[list[tuple[int, int]]] = []
    arc_face: dict[tuple[int, int], int] = {}
    free: list[int] = []  # ids of faces that an insertion destroyed
    all_arcs = [(x, e) for x, rot in enumerate(rotations) for e in rot]
    _trace_faces(all_arcs, rotations, pos, host_edges, faces, arc_face, free)

    def corner(fid: int, x: int) -> int:
        """Rotation index at x where an edge entering face fid is inserted:
        that of the first arc leaving x after the face's least arc."""
        face = faces[fid]
        return next(pos[x][e] for t, e in face[1:] + face[:1] if t == x)

    deferred = [e for e in range(len(g.edges)) if e not in kept]
    if shuffle:
        rng = random.Random(seed)
        rng.shuffle(deferred)

    dummies = 0
    for orig_eid in deferred:
        u, v = g.edges[orig_eid]
        if components.union(u, v):
            # Components can always be drawn into a common face: no crossing.
            # Appending closes the faces at the corners before u's and v's
            # first edges into one face.
            free += [arc_face[(x, rotations[x][0])] for x in (u, v) if rotations[x]]
            hid = len(host_edges)
            host_edges.append((u, v))
            origin.append(orig_eid)
            for x in (u, v):
                pos[x][hid] = len(rotations[x])
                rotations[x].append(hid)
            _trace_faces([(u, hid)], rotations, pos, host_edges, faces, arc_face, free)
            continue

        sources = {arc_face[(u, e)] for e in rotations[u]}
        targets = {arc_face[(v, e)] for e in rotations[v]}
        path_faces, crossed = _route(
            sorted(sources, key=lambda f: _arc_key(pos, faces[f][0])), targets, faces, arc_face
        )

        u_idx = corner(path_faces[0], u)
        v_idx = corner(path_faces[-1], v)

        # Split the crossed edges with dummies (in-place: positions in the
        # touched rotations are preserved).
        points = [u]
        toward_b: list[int] = []
        for i, c in enumerate(crossed):
            a, b = host_edges[c]
            from_face = path_faces[i]
            if arc_face[(a, c)] == from_face:
                ai, bi = a, b
            else:
                ai, bi = b, a
            d = len(rotations)
            dummies += 1
            host_edges[c] = (ai, d)
            hid_b = len(host_edges)
            host_edges.append((d, bi))
            origin.append(origin[c])
            rotations[bi][pos[bi][c]] = hid_b
            pos[bi][hid_b] = pos[bi].pop(c)
            del arc_face[(bi, c)]
            rotations.append([])  # filled below
            points.append(d)
            toward_b.append(hid_b)
        points.append(v)

        seg_ids: list[int] = []
        starts: list[tuple[int, int]] = []
        for p, q in zip(points, points[1:]):
            hid = len(host_edges)
            host_edges.append((p, q))
            origin.append(orig_eid)
            seg_ids.append(hid)
            starts += [(p, hid), (q, hid)]

        # Rotations: corner inserts at the endpoints, alternating order at
        # each dummy so the two original edges cross there.
        for i, c in enumerate(crossed):
            d = points[i + 1]
            rotations[d] = [c, seg_ids[i], toward_b[i], seg_ids[i + 1]]
            pos.append({e: j for j, e in enumerate(rotations[d])})
        for x, idx, hid in ((u, u_idx, seg_ids[0]), (v, v_idx, seg_ids[-1])):
            rotations[x].insert(idx, hid)
            for j in range(idx, len(rotations[x])):
                pos[x][rotations[x][j]] = j

        # The new path cuts each face on the route in two; every resulting
        # face holds one side of one segment, and no other face changed.
        free += path_faces
        _trace_faces(starts, rotations, pos, host_edges, faces, arc_face, free)

    host = Graph(n + dummies, tuple(host_edges))
    emb = Embedding(tuple(tuple(r) for r in rotations))
    return PlanarizedGraph(
        host=host,
        dummy_count=dummies,
        embedding=emb,
        origin_map=tuple(origin),
        original_vertex_count=n,
    )
