"""Differential checks against networkx's planarity test on graphs with
hundreds of vertices, where the brute-force oracle cannot reach.

Draws mix three shapes: subgraphs of a triangulated grid (planar), the same
with a few long-range chords (often just past planarity), and uniform random
graphs; vertex labels and edge order are shuffled so that the engines' DFS
does not follow the construction.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplanar.graph import Graph, connected_components, subgraph
from maxplanar.planarity import edge_addition_subgraph, embed, is_planar, validate_embedding

nx = pytest.importorskip("networkx")


def _grid_graph(rng: random.Random, chords: int) -> Graph:
    rows, cols = rng.randint(1, 15), rng.randint(1, 20)
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.add((v, v + 1))
            if r + 1 < rows:
                edges.add((v, v + cols))
            if c + 1 < cols and r + 1 < rows:
                edges.add((v, v + cols + 1))
    n = rows * cols
    kept = [e for e in sorted(edges) if rng.random() < 0.9]
    for _ in range(chords if n >= 2 else 0):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
            kept.append((a, b))
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(kept)
    return Graph(n, tuple((label[a], label[b]) for a, b in kept))


def _uniform_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 300)
    target = rng.randint(0, 3 * n)
    edges = set()
    for _ in range(target if n >= 2 else 0):
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    order = sorted(edges)
    rng.shuffle(order)
    return Graph(n, tuple(order))


@st.composite
def graphs(draw) -> tuple[Graph, random.Random]:
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["grid", "chords", "uniform"]))
    if shape == "uniform":
        return _uniform_graph(rng), rng
    return _grid_graph(rng, 0 if shape == "grid" else rng.randint(1, 4)), rng


def _nx_planar(g: Graph, ids=None) -> bool:
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges if ids is None else (g.edges[e] for e in ids))
    return nx.check_planarity(h)[0]


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_is_planar_matches_networkx(drawn):
    g, rng = drawn
    assert is_planar(g) == _nx_planar(g)
    for _ in range(3):
        ids = rng.sample(range(len(g.edges)), rng.randint(0, len(g.edges)))
        assert is_planar(g, ids) == _nx_planar(g, ids)


@given(graphs(), st.integers(0, 2**30))
@settings(max_examples=100, deadline=None)
def test_edge_addition_subgraph_planar_and_spanning(drawn, seed):
    g, _ = drawn
    kept = edge_addition_subgraph(g, seed)
    assert _nx_planar(g, kept)
    assert connected_components(subgraph(g, kept)) == connected_components(g)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_embedding_valid_on_planar_draws(drawn):
    g, _ = drawn
    if not _nx_planar(g):
        return
    out = embed(g)
    assert out.planar
    validate_embedding(g, out.embedding)
