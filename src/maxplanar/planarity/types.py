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
        rot, tail, arc_pos = arc_rotations(self.rotations, g.edges)
        faces = trace_faces(rot, tail, arc_pos, [a for r in rot for a in r])
        return [[(tail[a], a >> 1) for a in face] for face in faces]


def arc_rotations(
    rotations: Sequence[Sequence[int]], edges: Sequence[tuple[int, int]]
) -> tuple[list[list[int]], list[int], list[int]]:
    """A rotation system of edge ids as one of integer arcs.

    Arc 2*e + s leaves endpoint s of edge e, so its twin is `a ^ 1` and its
    edge `a >> 1`.  Returns each vertex's outgoing arcs in rotation order,
    and per arc its tail vertex and its index in that order.
    """
    tail = [v for edge in edges for v in edge]
    arc_pos = [0] * len(tail)
    rot: list[list[int]] = []
    for v, r in enumerate(rotations):
        arcs = [2 * e + (edges[e][0] != v) for e in r]
        for i, a in enumerate(arcs):
            arc_pos[a] = i
        rot.append(arcs)
    return rot, tail, arc_pos


def trace_faces(
    rot: Sequence[Sequence[int]],
    tail: Sequence[int],
    arc_pos: Sequence[int],
    starts: Iterable[int],
) -> list[list[int]]:
    """Faces through the arcs `starts` of an arc rotation system, one per face.

    The successor of arc a is the arc after its twin `a ^ 1` in the rotation
    of the twin's tail (a's head); every arc lies on exactly one face.  Each
    face is listed once, in the order of its first arc in `starts`, as the
    cyclic arc list beginning at that arc.  The lists are arc_rotations()'s.
    """
    faces: list[list[int]] = []
    seen: set[int] = set()
    for a in starts:
        if a in seen:
            continue
        face: list[int] = []
        while a not in seen:
            seen.add(a)
            face.append(a)
            a ^= 1
            r = rot[tail[a]]
            a = r[(arc_pos[a] + 1) % len(r)]
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
