"""The planarity kernel: what it reduces, and that its verdict is the input's.

The verdicts are checked against networkx's `check_planarity`, on random
graphs and on graphs rich in degree-2 vertices (subdivided K5 and K3,3,
randomly subdivided graphs), where suppression and the parallel merges it
causes do most of the work.  `plus_edge` is checked the same way against the
input graph plus one edge, since growth tests every candidate through it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplanar.planarity._engine import edge_addition_run
from maxplanar.planarity._kernel import PlanarityKernel

nx = pytest.importorskip("networkx")

K5 = list(itertools.combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def _subdivide(edges, rng: random.Random, max_len: int):
    """Replace each edge by a path with up to `max_len` inner vertices."""
    nxt = 1 + max((v for e in edges for v in e), default=-1)
    out = []
    for a, b in edges:
        inner = list(range(nxt, nxt + rng.randint(0, max_len)))
        nxt += len(inner)
        path = [a, *inner, b]
        out += zip(path, path[1:])
    return out


def _relabel(edges, rng: random.Random, spread: int = 1000):
    """Scatter the ids over a wide range and shuffle the edge order."""
    verts = sorted({v for e in edges for v in e})
    label = dict(zip(verts, rng.sample(range(spread * (len(verts) + 1)), len(verts))))
    out = [(label[a], label[b]) for a, b in edges]
    rng.shuffle(out)
    return out


@st.composite
def edge_lists(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "subdivided", "K5", "K3_3", "pendants"]))
    if shape in ("K5", "K3_3"):
        edges = _subdivide(K5 if shape == "K5" else K33, rng, 3)
    else:
        n = rng.randint(2, 40)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(1, min(len(pairs), 3 * n)))
        if shape != "uniform":
            edges = _subdivide(edges, rng, 2)
        if shape == "pendants":
            nxt = 1 + max(v for e in edges for v in e)
            for v in range(nxt, nxt + rng.randint(1, 10)):
                edges.append((rng.randrange(v), v))
    return _relabel(edges, rng), rng


def _nx_planar(edges) -> bool:
    return nx.check_planarity(nx.Graph(edges))[0]


def _assert_kernel_shape(k: PlanarityKernel) -> None:
    """Simple, every vertex of degree >= 3, ids exactly 0..n-1."""
    keys = [(min(e), max(e)) for e in k.edges]
    assert all(a != b for a, b in keys)
    assert len(set(keys)) == len(keys)
    deg = Counter(v for e in k.edges for v in e)
    assert sorted(deg) == list(range(k.n))
    assert all(d >= 3 for d in deg.values())


@given(edge_lists())
@settings(max_examples=300, deadline=None)
def test_kernel_verdict_matches_networkx(drawn):
    edges, _ = drawn
    k = PlanarityKernel(edges)
    _assert_kernel_shape(k)
    assert edge_addition_run(k.n, k.edges)[0] == _nx_planar(edges)


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_kernel_plus_edge_verdict_matches_networkx(drawn):
    edges, rng = drawn
    k = PlanarityKernel(edges)
    h = nx.Graph(edges)
    verts = sorted(h.nodes)
    for _ in range(8):
        a, b = rng.sample(verts, 2)
        if h.has_edge(a, b):
            continue
        n, plus = k.plus_edge(a, b)
        h.add_edge(a, b)
        assert edge_addition_run(n, plus)[0] == nx.check_planarity(h)[0]
        h.remove_edge(a, b)


def test_kernel_of_empty_graph():
    k = PlanarityKernel([])
    assert (k.n, k.edges) == (0, [])


def test_kernel_of_tree_is_empty():
    tree = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)]
    assert PlanarityKernel(tree).n == 0


def test_kernel_of_cycle_is_empty():
    assert PlanarityKernel([(i, (i + 1) % 7) for i in range(7)]).n == 0


def test_kernel_of_theta_graph_cascades_to_nothing():
    # Three paths between 0 and 1: suppression leaves three parallel edges,
    # merging them leaves 0 and 1 with degree 1, and the rest peels away.
    theta = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 6), (6, 7), (7, 1)]
    assert PlanarityKernel(theta).n == 0


def test_kernel_of_k4_with_pendant_paths_is_k4():
    # Host ids 10, 20, 30, 40 carry K4; paths and a tree hang off it.
    k4 = [(10, 20), (10, 30), (10, 40), (20, 30), (20, 40), (30, 40)]
    pendants = [(10, 1), (1, 2), (2, 3), (40, 5), (5, 6), (5, 7)]
    k = PlanarityKernel(k4 + pendants)
    assert k.n == 4
    assert sorted(k.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_kernel_of_subdivided_k33_is_k33_in_host_id_order():
    k = PlanarityKernel(_subdivide(K33, random.Random(3), 3))
    assert k.n == 6
    assert sorted(k.edges) == sorted(K33)
    assert not edge_addition_run(k.n, k.edges)[0]


def test_kernel_of_disconnected_input_keeps_each_part():
    # A subdivided K5, a cycle and a tree: only the K5 survives.
    k5 = _subdivide(K5, random.Random(1), 2)
    shift = 1 + max(v for e in k5 for v in e)
    cycle = [(shift + i, shift + (i + 1) % 5) for i in range(5)]
    tree = [(shift + 10, shift + 11), (shift + 11, shift + 12)]
    k = PlanarityKernel(k5 + cycle + tree)
    assert (k.n, sorted(k.edges)) == (5, K5)
    assert not edge_addition_run(k.n, k.edges)[0]


def test_plus_edge_inside_series_parallel_piece_leaves_kernel():
    # K4 with the edge 0-1 subdivided twice (4, 5): a chord between the two
    # subdivision vertices, or from one to 0, only widens that piece.
    g = [(0, 4), (4, 5), (5, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k = PlanarityKernel(g)
    assert k.n == 4
    assert k.plus_edge(4, 5) == (k.n, k.edges)
    assert k.plus_edge(0, 5) == (k.n, k.edges)
    # To a kernel vertex off the piece, the edge subdivides the piece's
    # kernel edge 0-1 by a new vertex 4 and joins it to 2.
    n, plus = k.plus_edge(5, 2)
    assert n == 5
    assert sorted((min(e), max(e)) for e in plus) == [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)
    ]
