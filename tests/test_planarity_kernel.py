"""The planarity kernel: what it reduces, and that its verdict is the input's.

The verdicts are checked against networkx's `check_planarity`, on random
graphs and on graphs rich in degree-2 vertices (subdivided K5 and K3,3,
randomly subdivided graphs), where suppression and the parallel merges it
causes do most of the work.  `plus_edge` is checked the same way against the
input graph plus one edge, since growth tests every candidate through it,
and so is every candidate that `shares_a_wedge` keeps without the engine.
A kernel kept in place by `add` is checked against a fresh one of the same
graph: the same kernel, locations and closures.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxplanar.planarity._engine import edge_addition_run
from maxplanar.planarity._kernel import PlanarityKernel
from oracles import assert_kernel_is_fresh

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


K4 = list(itertools.combinations(range(4), 2))
TWO_K4S = K4 + [(a + 4, b + 4) for a, b in K4]
K4_AND_PATH = K4 + [(4, 5), (5, 6), (6, 7)]


@given(edge_lists())
@example((TWO_K4S, random.Random(0)))  # a candidate joins two kernel parts
@example((K4_AND_PATH, random.Random(0)))  # or a kernel part and one reduced away
@example((K4, random.Random(0)))  # or a kernel part and a new vertex
@settings(max_examples=200, deadline=None)
def test_kernel_plus_edge_verdict_matches_networkx(drawn):
    # The plus-edge graph is the kernel of the candidate's part only: it is
    # connected, and its verdict is that of the candidate's component plus
    # the edge.  A bridge gets None, as does an edge within one piece.
    edges, rng = drawn
    k = PlanarityKernel(edges)
    h = nx.Graph(edges)
    verts = sorted(h.nodes)
    new = verts[-1] + 1  # a vertex new to the input
    for a, b in [*(rng.sample(verts, 2) for _ in range(8)), (rng.choice(verts), new)]:
        if h.has_edge(a, b):
            continue
        plus = k.plus_edge(a, b)
        bridge = b == new or not nx.has_path(h, a, b)
        h.add_edge(a, b)
        if plus is None:
            # The kernel as it is, whose verdict is the input's.
            assert edge_addition_run(k.n, k.edges)[0] == nx.check_planarity(h)[0]
        else:
            assert not bridge
            n, plus = plus
            g = nx.Graph(plus)
            assert sorted(g) == list(range(n)) and nx.is_connected(g)
            part = h.subgraph(nx.node_connected_component(h, a))
            assert edge_addition_run(n, plus)[0] == nx.check_planarity(part)[0]
        h.remove_edge(a, b)
        if b == new:
            h.remove_node(b)


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
    assert k.plus_edge(4, 5) is None
    assert k.plus_edge(0, 5) is None
    # To a kernel vertex off the piece, the edge subdivides the piece's
    # kernel edge 0-1 by a new vertex 4 and joins it to 2.
    n, plus = k.plus_edge(5, 2)
    assert n == 5
    assert sorted((min(e), max(e)) for e in plus) == [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)
    ]


def test_plus_edge_inside_a_piece_keeps_the_verdict_but_grows_the_kernel():
    # K4 on 0..3 with 0-1 replaced by the paths 0-4-1 and 0-5-1: the two
    # paths merge into the kernel edge 0-1.  The chord 4-5 lies within that
    # piece, so the verdict stays planar, but 4 and 5 now have degree 3 and
    # the graph is its own kernel.
    g = [(0, 4), (4, 1), (0, 5), (5, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k = PlanarityKernel(g)
    assert (k.n, len(k.edges)) == (4, 6)
    assert k.plus_edge(4, 5) is None
    assert _nx_planar(g + [(4, 5)])
    fresh = PlanarityKernel(g + [(4, 5)])
    assert (fresh.n, len(fresh.edges)) == (6, 10)
    k.add([(4, 5)])
    assert (k.n, k.edges) == (fresh.n, fresh.edges)
    assert_kernel_is_fresh(k)


@given(edge_lists(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_kernel_kept_in_place_matches_a_fresh_one(drawn, batch):
    # Build from a prefix of the edges, then add the rest in batches; after
    # each, the kernel, every location and every closure are a fresh one's.
    edges, rng = drawn
    cut = rng.randrange(len(edges))
    k = PlanarityKernel(edges[:cut])
    for i in range(cut, len(edges), batch):
        k.add(edges[i:i + batch])
        assert_kernel_is_fresh(k)


TRIANGLE = [(0, 1), (1, 2), (0, 2)]
PATH = [(0, 1), (1, 2), (2, 3)]
THETA = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]


@given(edge_lists(), edge_lists())
@example((TRIANGLE, random.Random(0)), (PATH, random.Random(0)))
@example((THETA, random.Random(1)), (TRIANGLE, random.Random(1)))
@example((PATH, random.Random(2)), (K4, random.Random(2)))
@example((K4, random.Random(3)), (THETA, random.Random(3)))
@settings(max_examples=150, deadline=None)
def test_kernel_joined_by_a_bridge_matches_a_fresh_one(first, second):
    # Growth keeps one kernel for all of its host graph, so a bridge between
    # two kept components is one edge added to a kernel that holds both
    # sides.  Either side may have reduced away: two such parts, or one
    # and a vertex new to the input, are joined without being put back.
    # Fed the bridge and then the other side's edges, the kernel must also
    # come out fresh.
    (e1, rng), (e2, _) = first, second
    shift = 1 + max(v for e in e1 for v in e)
    e2 = [(a + shift, b + shift) for a, b in e2]
    a = rng.choice([v for e in e1 for v in e])
    b = rng.choice([v for e in e2 for v in e])
    k = PlanarityKernel(e1 + e2)
    k.add([(a, b)])
    assert_kernel_is_fresh(k)
    k = PlanarityKernel(e1)
    k.add([(a, b), *e2])
    assert_kernel_is_fresh(k)
    k = PlanarityKernel(e1)
    k.add([(a, b + shift * 100)])  # to a vertex new to the input, alone
    assert_kernel_is_fresh(k)


def test_kernel_of_a_reduced_away_part_hangs_from_a_bridge():
    # A triangle reduces away; bridged to a K4 it hangs from the K4 vertex
    # it is joined to, and so do its vertices' closures.
    k = PlanarityKernel([(10, 11), (11, 12), (10, 12)])
    assert k.n == 0
    k.add([(12, 3), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k.n == 4
    assert sorted(k.closure(11)) == [3, 10, 11, 12]
    assert_kernel_is_fresh(k)


def test_closure_of_a_kernel_vertex_takes_the_pieces_at_it():
    # K4 on 0..3 with 0-1 subdivided by 4, 5 and a pendant 6 at 5, and 2-3
    # subdivided by 7: 4, 5 and 6 lie in the kernel edge 0-1, and 7 in 2-3.
    g = [(0, 4), (4, 5), (5, 1), (5, 6), (0, 2), (0, 3), (1, 2), (1, 3), (2, 7), (7, 3)]
    k = PlanarityKernel(g)
    assert k.n == 4
    assert sorted(k.closure(0)) == [0, 4, 5, 6]
    assert sorted(k.closure(2)) == [2, 7]
    assert sorted(k.closure(6)) == sorted(k.closure(4)) == [4, 5, 6]
    assert k.closure(7) == [7]


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_wedge_rule_keeps_only_planar_candidates(drawn):
    # The component is made planar by a skip pass; every candidate whose
    # locations share a degree-3 kernel neighbour must leave it planar.
    edges, rng = drawn
    n = 1 + max(v for e in edges for v in e)
    skipped = set(edge_addition_run(n, edges, skip_unembeddable=True)[1])
    planar = [e for i, e in enumerate(edges) if i not in skipped]
    k = PlanarityKernel(planar)
    h = nx.Graph(planar)
    pairs = [p for p in itertools.combinations(sorted(h.nodes), 2) if not h.has_edge(*p)]
    rng.shuffle(pairs)
    kept = [p for p in pairs if k.shares_a_wedge(*p)][:20]
    for a, b in kept:
        h.add_edge(a, b)
        assert nx.check_planarity(h)[0]
        h.remove_edge(a, b)


def test_wedge_rule_fires_beside_a_degree_three_kernel_vertex():
    # K4 with 0-1 subdivided by 4 and 5: 5 lies in the kernel edge 0-1, and
    # 2's kernel neighbours include 0 and 1, both of kernel degree 3.  The
    # candidate changes the kernel, but the wedge rule decides it.
    g = [(0, 4), (4, 5), (5, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    k = PlanarityKernel(g)
    assert k.plus_edge(5, 2) is not None
    assert k.shares_a_wedge(5, 2) and k.shares_a_wedge(2, 5)
    assert edge_addition_run(*k.plus_edge(5, 2))[0]


def test_wedge_rule_stays_out_between_kernel_edges_with_no_common_end():
    # K3,3 on {0,1,2} x {3,4,5} less 0-3 has the kernel K4: 0 is suppressed
    # into the kernel edge 4-5 and 3 into 1-2.  Those edges share no end, so
    # the rule does not fire, and the engine rejects the candidate 0-3.
    g = [e for e in K33 if e != (0, 3)]
    k = PlanarityKernel(g)
    assert (k.n, len(k.edges)) == (4, 6)
    assert not k.shares_a_wedge(0, 3)
    assert not edge_addition_run(*k.plus_edge(0, 3))[0]
