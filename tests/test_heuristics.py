from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, random_graph, spanning_subgraph
from maxplanar import heuristics
from maxplanar.graph import DisjointSets, Graph, connected_components
from maxplanar.heuristics import (
    bm_plus,
    bm_subgraph,
    build_cactus,
    cactus_plus,
    cactus_subgraph,
    grow_maximal,
    multistart_naive,
    naive,
)
from maxplanar.planarity import is_planar
from maxplanar.planarity.types import NonPlanarStartError
from oracles import maximal_planar_subgraph_sizes


def assert_maximal(g: Graph, kept: frozenset[int]) -> None:
    assert is_planar(g, kept)
    for eid in range(len(g.edges)):
        if eid not in kept:
            assert not is_planar(g, kept | {eid})


def test_grow_maximal_planar_input_takes_all(k4):
    assert grow_maximal(k4, frozenset(), 0) == k4.all_edges()


def test_all_maximal_subgraphs_of_k5_have_nine_edges(k5):
    # brute-force justification for the fixed expected size below
    assert maximal_planar_subgraph_sizes(k5) == {9}


def test_all_maximal_subgraphs_of_k33_have_eight_edges(k33):
    assert maximal_planar_subgraph_sizes(k33) == {8}


def test_grow_maximal_k5(k5):
    for seed in range(6):
        kept = grow_maximal(k5, frozenset(), seed)
        assert len(kept) == 9
        assert_maximal(k5, kept)


def test_grow_maximal_k33(k33):
    for seed in range(6):
        kept = grow_maximal(k33, frozenset(), seed)
        assert len(kept) == 8
        assert_maximal(k33, kept)


def test_grow_maximal_runs_engine_once_per_test(monkeypatch, k5, k33):
    # An edge that bridges two components, or that no planar graph could
    # hold, is decided without the engine; every other edge costs exactly
    # one engine call.  The benchmark counts growth tests by these calls.
    engine = heuristics.edge_addition_run
    verdicts = []

    def counting(*args, **kwargs):
        result = engine(*args, **kwargs)
        verdicts.append(result[0])
        return result

    monkeypatch.setattr(heuristics, "edge_addition_run", counting)
    for seed in range(8):
        # K3,3: five bridges span it; of the other four edges, the last
        # would complete K3,3 and is the only reject.
        verdicts.clear()
        assert len(grow_maximal(k33, frozenset(), seed)) == 8
        assert verdicts == [True, True, True, False]
        # K5: four bridges, then five accepted tests reach 3n - 6 = 9 edges,
        # and the Euler bound drops the last edge untested.
        verdicts.clear()
        assert len(grow_maximal(k5, frozenset(), seed)) == 9
        assert verdicts == [True] * 5


def test_grow_maximal_rejects_nonplanar_start(k5):
    with pytest.raises(NonPlanarStartError):
        grow_maximal(k5, k5.all_edges(), 0)


def test_grow_maximal_keeps_start():
    g = complete_graph(6)
    start = frozenset({0, 1, 2})
    kept = grow_maximal(g, start, 7)
    assert start <= kept


def test_naive_is_maximal_and_flagged(k5):
    r = naive(k5, 3)
    assert r.maximal and r.algorithm == "naive"
    assert len(r.kept) == 9


def test_multistart_restarts_one_matches_first_derived_seed(k5):
    r1 = multistart_naive(k5, 1, 123)
    first = random.Random(123).randrange(2**63)
    assert r1.kept == naive(k5, first).kept


@pytest.mark.parametrize("restarts", [0, -3])
def test_naive_refuses_restarts_below_one(k5, restarts):
    # multistart_naive, the one consumer of `restarts`, checks it itself.
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
        heuristics.run_algorithm(k5, "naive", 0, restarts)
    with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
        multistart_naive(k5, restarts, 0)


def test_multistart_k5(k5):
    assert len(multistart_naive(k5, 5, 0).kept) == 9


def test_multistart_disjoint_union_k5_k33():
    k5 = complete_graph(5)
    edges = list(k5.edges) + [(5 + a, 8 + b) for a in range(3) for b in range(3)]
    g = Graph(11, tuple(edges))
    r = multistart_naive(g, 10, 1)
    assert len(r.kept) == 17  # 9 + 8, components independent
    assert_maximal(g, r.kept)


def test_bm_subgraph_k5(k5):
    for seed in range(5):
        r = bm_subgraph(k5, seed)
        assert len(r.kept) == 9
        assert not r.maximal


def test_bm_plus_k6(k6):
    for seed in range(5):
        r = bm_plus(k6, seed)
        assert len(r.kept) == 12  # Euler bound 3n-6 attained
        assert r.maximal
        assert_maximal(k6, r.kept)


def test_cactus_k33_is_spanning_tree(k33):
    for seed in range(6):
        r = cactus_subgraph(k33, seed)
        assert len(r.kept) == 5  # triangle-free: connectors only
        assert connected_components(spanning_subgraph(k33, r.kept)) == [set(range(6))]


def test_cactus_k5_two_triangles(k5):
    for seed in range(6):
        forest = build_cactus(k5, seed)
        assert len(forest.triangles) == 2
        assert len(forest.triangle_edges) == 6
        assert forest.connector_edges == frozenset()
        r = cactus_subgraph(k5, seed)
        assert len(r.kept) == 6
        assert connected_components(spanning_subgraph(k5, r.kept)) == [set(range(5))]


def test_cactus_triangle_graph():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    r = cactus_subgraph(g, 0)
    assert r.kept == g.all_edges()


def test_cactus_structure_random():
    rng = random.Random(9)
    for trial in range(25):
        g = random_graph(rng.randint(3, 40), rng.randint(0, 120), rng)
        forest = build_cactus(g, trial)
        kept = forest.triangle_edges | forest.connector_edges
        ids = {frozenset(e): eid for eid, e in enumerate(g.edges)}
        # triangles pairwise edge-disjoint
        seen: set[int] = set()
        for (a, b, c) in forest.triangles:
            tri = {ids[frozenset(p)] for p in ((a, b), (a, c), (b, c))}
            assert not (tri & seen)
            seen |= tri
        assert seen == forest.triangle_edges
        sub = spanning_subgraph(g, kept)
        assert is_planar(sub)
        assert connected_components(sub) == connected_components(g)
        # cactus: every edge in at most one cycle and every cycle a triangle
        # <=> m_kept == (n - #components) + #triangles
        comps = connected_components(g)
        assert len(kept) == g.vertex_count - len(comps) + len(forest.triangles)


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_cactus_triangle_phase_is_saturated(seed):
    # With classes formed by the triangles alone, no edge joining two classes
    # closes a triangle through a third: one more triangle pass adds nothing.
    rng = random.Random(seed)
    n = rng.randint(3, 40)
    g = random_graph(n, rng.randint(0, 4 * n), rng)
    ds = DisjointSets(n)
    for a, b, c in build_cactus(g, seed).triangles:
        ds.union(a, b)
        ds.union(a, c)
    nbrs = [set() for _ in range(n)]
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for a, b in g.edges:
        ca, cb = ds.find(a), ds.find(b)
        if ca != cb:
            assert all(ds.find(w) in (ca, cb) for w in nbrs[a] & nbrs[b])


def test_cactus_plus_named(k5, k33, k4):
    assert len(cactus_plus(k5, 2).kept) == 9
    assert len(cactus_plus(k33, 2).kept) == 8
    assert cactus_plus(k4, 2).kept == k4.all_edges()


def test_one_third_floor_on_connected():
    rng = random.Random(10)
    for trial in range(10):
        n = rng.randint(5, 40)
        g = random_graph(n, rng.randint(2 * n, 4 * n), rng)
        if len(connected_components(g)) != 1:
            continue
        for fn in (naive, bm_subgraph, bm_plus, cactus_subgraph, cactus_plus):
            assert len(fn(g, trial).kept) >= n - 1


@given(st.integers(0, 2**30), st.integers(5, 22))
@settings(max_examples=40, deadline=None)
def test_determinism_property(seed, n):
    rng = random.Random(seed)
    g = random_graph(n, rng.randint(0, 3 * n), rng)
    for fn in (naive, bm_subgraph, bm_plus, cactus_subgraph, cactus_plus):
        assert fn(g, seed).kept == fn(g, seed).kept


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_maximality_honesty_property(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(4, 24), rng.randint(4, 60), rng)
    for fn in (naive, bm_plus, cactus_plus):
        r = fn(g, seed)
        assert r.maximal
        assert_maximal(g, r.kept)


def test_cactus_plus_within_seven_eighteenths_of_optimum():
    import math

    from maxplanar.exact import exact_skewness

    rng = random.Random(123)
    for trial in range(8):
        g = random_graph(rng.randint(5, 10), rng.randint(6, 20), rng)
        opt = len(exact_skewness(g, 60_000).optimal_kept)
        got = len(cactus_plus(g, trial).kept)
        assert got >= math.ceil(7 * opt / 18)
