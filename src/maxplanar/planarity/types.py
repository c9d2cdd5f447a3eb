"""Planarity outcome types: embeddings and Kuratowski witnesses."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..graph import EdgeSet, Graph


class PlanarGraphError(ValueError):
    """Raised when a non-planar input was required but a planar one given."""


class NonPlanarStartError(ValueError):
    """Raised when an operation requires a planar starting subgraph."""


@dataclass(frozen=True)
class Embedding:
    """Combinatorial embedding: a cyclic order of incident edge ids per vertex."""

    rotations: tuple[tuple[int, ...], ...]

    def faces(self, g: Graph) -> list[list[tuple[int, int]]]:
        """Faces as cyclic lists of directed arcs (tail vertex, edge id).

        Faces are ordered by their least arc, where arcs are ordered by (tail
        vertex, index in the tail's rotation), and each list starts there.
        """
        rots = self.rotations
        arcs = [(v, e) for v in range(g.vertex_count) for e in rots[v]]
        return trace_faces(rots, rotation_positions(rots), g.edges, arcs)


def rotation_positions(rotations: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """Per vertex: edge id -> index of the edge in the vertex's rotation."""
    return [{e: i for i, e in enumerate(rot)} for rot in rotations]


def trace_faces(
    rotations: Sequence[Sequence[int]],
    pos: list[dict[int, int]],
    edges: Sequence[tuple[int, int]],
    starts: Iterable[tuple[int, int]],
) -> list[list[tuple[int, int]]]:
    """Faces through the arcs `starts` of a rotation system, one per face.

    The successor of arc (u, e) with head w is the edge after e in w's
    rotation, leaving w; every directed arc lies on exactly one face.  Each
    face is listed once, in the order of its first arc in `starts`, as the
    cyclic arc list beginning at that arc.  `pos` is rotation_positions().
    """
    faces: list[list[tuple[int, int]]] = []
    seen: set[tuple[int, int]] = set()
    for arc in starts:
        if arc in seen:
            continue
        face: list[tuple[int, int]] = []
        cur = arc
        while cur not in seen:
            seen.add(cur)
            face.append(cur)
            tail, eid = cur
            a, b = edges[eid]
            head = b if tail == a else a
            rot = rotations[head]
            cur = (head, rot[(pos[head][eid] + 1) % len(rot)])
        faces.append(face)
    return faces


@dataclass(frozen=True)
class KuratowskiSubdivision:
    """A K5 or K3,3 subdivision witnessing non-planarity.

    `edges` is an edge-minimal non-planar edge set of the host graph; the
    branch vertices have degree 4 (K5) or 3 (K3,3) within the witness and all
    other touched vertices have degree 2.
    """

    kind: str  # "K5" or "K3_3"
    branch_vertices: tuple[int, ...]
    edges: EdgeSet


@dataclass(frozen=True)
class PlanarityOutcome:
    planar: bool
    embedding: Embedding | None = None
    witness: KuratowskiSubdivision | None = None

    def __post_init__(self) -> None:
        if self.planar and (self.embedding is None or self.witness is not None):
            raise ValueError("planar outcome needs an embedding and no witness")
        if not self.planar and (self.witness is None or self.embedding is not None):
            raise ValueError("non-planar outcome needs a witness and no embedding")
