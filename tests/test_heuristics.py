from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, disjoint_union, random_graph, spanning_subgraph
from maxplanar.graph import DisjointSets, Graph, connected_components
from maxplanar.heuristics import (
    ALGORITHMS,
    SEED_SPACE,
    build_cactus,
    cactus_plus,
    grow_maximal,
    run_algorithm,
)
from maxplanar.planarity import edge_addition_subgraph, is_planar
from maxplanar.planarity._kernel import PlanarityKernel
from maxplanar.planarity.types import NonPlanarStartError
from oracles import FreshKernelCheck, maximal_planar_subgraph_sizes, triangles_in, watch_growth


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
    # Growth stops once the kept set has 3n - 6 edges.  Before that, a
    # bridge of the kept graph, an edge whose ends lie within one piece of
    # the kernel or beside one degree-3 kernel vertex, or one that an earlier
    # reject settled, is decided without the engine; every other edge costs
    # exactly one engine call, an edge past its kept part's Euler bound
    # included.
    # The benchmark counts growth tests by these calls.
    tested, verdicts, _ = watch_growth(monkeypatch)
    for seed in range(8):
        # K3,3: five bridges span it.  The first three other edges meet an
        # empty kernel (at most two independent cycles reduce away); the
        # last would complete K3,3 against the kernel K4, and is the only
        # engine run.
        tested.clear()
        verdicts.clear()
        assert len(grow_maximal(k33, frozenset(), seed)) == 8
        assert len(tested) == 1 and verdicts == [False]
        # K5: four bridges, then five accepts reach 3n - 6 = 9 edges, the
        # first three against an empty kernel; growth then stops, and the
        # last edge is never tried.
        tested.clear()
        verdicts.clear()
        assert len(grow_maximal(k5, frozenset(), seed)) == 9
        assert len(tested) == len(verdicts) <= 2
        assert all(verdicts)
    # Two K4s joined by 0-4, started from both: the bridge joins two kernel
    # parts, so it is kept with no engine run.
    k4s = [(a + o, b + o) for o in (0, 4) for a, b in itertools.combinations(range(4), 2)]
    g = Graph(8, tuple(k4s + [(0, 4)]))
    # An octahedron start (12 = 3 * 6 - 6 edges) plus its diagonal 0-5, beside
    # the path 6-7-8: the diagonal breaks its kept part's Euler bound, and
    # the engine rejects it at once; the path's edges are bridges.
    octahedron = [e for e in itertools.combinations(range(6), 2)
                  if e not in ((0, 5), (1, 4), (2, 3))]
    h = Graph(9, tuple(octahedron + [(0, 5), (6, 7), (7, 8)]))
    for seed in range(4):
        tested.clear()
        verdicts.clear()
        assert grow_maximal(g, frozenset(range(12)), seed) == g.all_edges()
        assert tested == [] and verdicts == []
        tested.clear()
        verdicts.clear()
        assert grow_maximal(h, frozenset(range(12)), seed) == h.all_edges() - {12}
        assert tested == [(0, 5)] and verdicts == [False]
    # K4 with 0-1 subdivided by 4 and 5, plus the candidate 5-2: it changes
    # the kernel, but 5's kernel edge 0-1 and 2 share the degree-3 kernel
    # neighbours 0 and 1, so the wedge rule keeps it with no engine run.
    start = [(0, 4), (4, 5), (5, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = Graph(6, tuple(start + [(5, 2)]))
    wedges = []
    shares_a_wedge = PlanarityKernel.shares_a_wedge

    def watched_wedge(self, a, b):
        hit = shares_a_wedge(self, a, b)
        if hit:
            wedges.append((a, b))
        return hit

    monkeypatch.setattr(PlanarityKernel, "shares_a_wedge", watched_wedge)
    tested.clear()
    verdicts.clear()
    assert grow_maximal(g, frozenset(range(8)), 0) == g.all_edges()
    assert wedges == [(5, 2)] and tested == [] and verdicts == []


def test_grow_maximal_reject_settles_edges_in_its_closures(monkeypatch):
    # K5 less the edge 0-1, with 0-2 subdivided by 5 and 1-3 by 6: that is
    # the kernel, with 5 located in its edge 0-2 and 6 in 1-3.  Rejecting
    # 0-1 settles 5-6, whose ends lie in the closures of 0 and 1, so the
    # engine never sees 5-6; rejecting 5-6 first settles only itself.
    start = [(0, 5), (5, 2), (1, 6), (6, 3), (0, 3), (0, 4), (1, 2), (1, 4),
             (2, 3), (2, 4), (3, 4)]
    g = Graph(7, tuple(start + [(0, 1), (5, 6)]))
    tested, verdicts, _ = watch_growth(monkeypatch)
    firsts = set()
    for seed in range(8):
        tested.clear()
        verdicts.clear()
        assert grow_maximal(g, frozenset(range(len(start))), seed) == frozenset(range(11))
        if tested[0] == (0, 1):
            assert tested == [(0, 1)] and verdicts == [False]
        else:
            assert tested == [(5, 6), (0, 1)] and verdicts == [False, False]
        firsts.add(tested[0])
    assert firsts == {(0, 1), (5, 6)}


def test_grow_maximal_keeps_a_triangulating_start_without_the_engine(monkeypatch):
    # A start with 3n - 6 edges on all n vertices is maximal planar, so
    # growth stops before it tries any other edge.
    rng = random.Random(4)
    n = 30
    edges, faces = [(0, 1), (1, 2), (0, 2)], [(0, 1, 2)]
    for v in range(3, n):  # stack v into a random inner face
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    start = frozenset(range(len(edges)))
    assert len(start) == 3 * n - 6
    present = {frozenset(e) for e in edges}
    others = [p for p in itertools.combinations(range(n), 2) if frozenset(p) not in present]
    g = Graph(n, tuple(edges + rng.sample(others, 60)))
    tested, verdicts, _ = watch_growth(monkeypatch)
    for seed in range(4):
        assert grow_maximal(g, start, seed) == start
    assert tested == [] and verdicts == []


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_grow_maximal_verdicts_without_engine_match_networkx(draw):
    # Replays growth in its seed-shuffled order and checks each edge decided
    # without an engine run: kept iff planar with the edges kept before it.
    nx = pytest.importorskip("networkx")
    rng = random.Random(draw)
    n = rng.randint(3, 40)
    g = random_graph(n, rng.randint(n, 4 * n), rng)
    share = rng.random()
    start = frozenset(e for e in sorted(edge_addition_subgraph(g, draw)) if rng.random() < share)
    seed = rng.randrange(SEED_SPACE)
    with pytest.MonkeyPatch.context() as mp:
        tested, _, _ = watch_growth(mp)
        kept = grow_maximal(g, start, seed)
    order = [e for e in range(len(g.edges)) if e not in start]
    random.Random(seed).shuffle(order)
    by_engine = set(tested)
    h = nx.Graph(g.edges[e] for e in start)
    for eid in order:
        h.add_edge(*g.edges[eid])
        if g.edges[eid] not in by_engine:
            assert nx.check_planarity(h)[0] == (eid in kept)
        if eid not in kept:
            h.remove_edge(*g.edges[eid])


@given(st.integers(0, 2**30))
@settings(max_examples=60, deadline=None)
def test_grow_maximal_keeps_each_kernel_as_a_fresh_one(draw):
    # Two random parts joined by a few edges, grown from a random planar
    # start: the parts' kept edges share one kernel, the cross edges bridge
    # them inside it, and after every add that kernel equals a fresh one.
    rng = random.Random(draw)
    sizes = rng.randint(4, 25), rng.randint(4, 25)
    parts = disjoint_union(*(random_graph(n, rng.randint(n, 3 * n), rng) for n in sizes))
    cross = {(rng.randrange(sizes[0]), sizes[0] + rng.randrange(sizes[1])) for _ in range(3)}
    g = Graph(parts.vertex_count, parts.edges + tuple(sorted(cross)))
    # Start from most of each part's planar edges, and no cross edge.
    share = rng.uniform(0.5, 1)
    start = frozenset(e for e in sorted(edge_addition_subgraph(parts, draw)) if rng.random() < share)
    with pytest.MonkeyPatch.context() as mp:
        FreshKernelCheck(mp)
        kept = grow_maximal(g, start, draw)
    assert is_planar(g, kept)


def test_grow_maximal_builds_each_kernel_once(monkeypatch):
    # Growth builds one kernel for all of g, from the start edges, before
    # any candidate; every kept edge, bridges included, goes to it.  Each
    # label thus builds exactly one kernel per growth, over components of g
    # too, and it ends holding every vertex of g with an edge, as a maximal
    # planar subgraph spans each component.
    check = FreshKernelCheck(monkeypatch)
    g = disjoint_union(random_graph(60, 150, random.Random(1)), random_graph(40, 90, random.Random(2)),
                       isolated=3)
    components = [c for c in connected_components(g) if len(c) > 1]
    assert len(components) >= 2
    for label in ("naive", "bm+", "cactus+"):
        check.built.clear()
        run_algorithm(g, label, 3, restarts=1)
        assert len(check.built) == 1
        assert set(check.built[0]._adj) == set().union(*components)
    assert check.checks > 0


def test_grow_maximal_rejects_nonplanar_start(k5):
    with pytest.raises(NonPlanarStartError):
        grow_maximal(k5, k5.all_edges(), 0)


def test_grow_maximal_keeps_start():
    g = complete_graph(6)
    start = frozenset({0, 1, 2})
    kept = grow_maximal(g, start, 7)
    assert start <= kept


@pytest.mark.parametrize("name", ALGORITHMS)
def test_label_sets_algorithm_and_maximal(k5, name):
    r = run_algorithm(k5, name, 3)
    assert r.algorithm == name
    assert r.maximal == (name not in ("bm", "cactus"))
    assert is_planar(k5, r.kept)
    # K5's maximal planar subgraphs all have 9 edges; the cactus has 6.
    assert len(r.kept) == (6 if name == "cactus" else 9)


def test_run_algorithm_refuses_unknown_label(k5):
    with pytest.raises(ValueError, match=r"unknown algorithm 'bm\+\+'"):
        run_algorithm(k5, "bm++", 0)


def test_multistart_restarts_one_matches_first_derived_seed(k5):
    r1 = run_algorithm(k5, "naive", 123, restarts=1)
    first = random.Random(123).randrange(SEED_SPACE)
    assert r1.seed == first
    assert r1.kept == grow_maximal(k5, frozenset(), first)


def test_naive_reports_the_first_seed_of_the_largest_growth():
    # On this graph the six growths keep [26, 27, 25, 26, 27, 27] edges: a
    # later restart wins, and of the three that keep 27 the first is reported.
    g = random_graph(12, 40, random.Random(0))
    rng = random.Random(0)
    derived = [rng.randrange(SEED_SPACE) for _ in range(6)]
    sizes = [len(grow_maximal(g, frozenset(), s)) for s in derived]
    assert sizes == [26, 27, 25, 26, 27, 27]
    r = run_algorithm(g, "naive", 0, 6)
    assert r.seed == derived[1]
    assert r.kept == grow_maximal(g, frozenset(), r.seed)


@pytest.mark.parametrize("restarts", [0, -3, 2.5, True])
def test_naive_refuses_restarts_below_one(k5, restarts):
    # run_algorithm checks `restarts` for every label, not only naive's.
    # Unchecked, 2.5 raises a bare TypeError and True runs one start.
    if type(restarts) is int:
        message = f"restarts must be >= 1, got {restarts}"
    else:
        message = f"restarts: {restarts!r} is not an int"
    for name in ALGORITHMS:
        with pytest.raises(ValueError, match=message):
            run_algorithm(k5, name, 0, restarts)


def test_run_algorithm_refuses_negative_seeds(k5):
    # Random(-3) draws what Random(3) draws: seed -3 used to return seed 3's set.
    for name in ALGORITHMS:
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            run_algorithm(k5, name, -3)
    assert run_algorithm(k5, "bm", 0).kept == run_algorithm(k5, "bm", 0).kept


def test_multistart_k5(k5):
    assert len(run_algorithm(k5, "naive", 0, 5).kept) == 9


def test_multistart_disjoint_union_k5_k33():
    k5 = complete_graph(5)
    edges = list(k5.edges) + [(5 + a, 8 + b) for a in range(3) for b in range(3)]
    g = Graph(11, tuple(edges))
    r = run_algorithm(g, "naive", 1, 10)
    assert len(r.kept) == 17  # 9 + 8, components independent
    assert_maximal(g, r.kept)


def test_bm_subgraph_k5(k5):
    for seed in range(5):
        r = run_algorithm(k5, "bm", seed)
        assert len(r.kept) == 9
        assert not r.maximal


def test_bm_plus_k6(k6):
    for seed in range(5):
        r = run_algorithm(k6, "bm+", seed)
        assert len(r.kept) == 12  # Euler bound 3n-6 attained
        assert r.maximal
        assert_maximal(k6, r.kept)


def test_cactus_k33_is_spanning_tree(k33):
    for seed in range(6):
        r = run_algorithm(k33, "cactus", seed)
        assert len(r.kept) == 5  # triangle-free: connectors only
        assert connected_components(spanning_subgraph(k33, r.kept)) == [set(range(6))]


def test_cactus_k5_two_triangles(k5):
    for seed in range(6):
        kept = build_cactus(k5, seed)
        # Two triangles on five vertices share one; no connector is left.
        assert len(triangles_in(k5, kept)) == 2
        assert len(kept) == 6
        assert run_algorithm(k5, "cactus", seed).kept == kept
        assert connected_components(spanning_subgraph(k5, kept)) == [set(range(5))]


def test_cactus_triangle_graph():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    r = run_algorithm(g, "cactus", 0)
    assert r.kept == g.all_edges()


def test_cactus_structure_random():
    rng = random.Random(9)
    for trial in range(25):
        g = random_graph(rng.randint(3, 40), rng.randint(0, 120), rng)
        kept = build_cactus(g, trial)
        triangles = triangles_in(g, kept)
        # triangles pairwise edge-disjoint
        assert len({e for tri in triangles for e in tri}) == 3 * len(triangles)
        sub = spanning_subgraph(g, kept)
        assert is_planar(sub)
        assert connected_components(sub) == connected_components(g)
        # cactus: every edge in at most one cycle and every cycle a triangle
        # <=> m_kept == (n - #components) + #triangles
        comps = connected_components(g)
        assert len(kept) == g.vertex_count - len(comps) + len(triangles)


@given(st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_cactus_triangle_phase_is_saturated(seed):
    # With classes formed by the triangles alone, no edge joining two classes
    # closes a triangle through a third: one more triangle pass adds nothing.
    rng = random.Random(seed)
    n = rng.randint(3, 40)
    g = random_graph(n, rng.randint(0, 4 * n), rng)
    ds = DisjointSets(n)
    for tri in triangles_in(g, build_cactus(g, seed)):
        for e in tri:
            ds.union(*g.edges[e])
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
        for name in ALGORITHMS:
            assert len(run_algorithm(g, name, trial, restarts=1).kept) >= n - 1


@given(st.integers(0, 2**30), st.integers(5, 22))
@settings(max_examples=40, deadline=None)
def test_determinism_property(seed, n):
    rng = random.Random(seed)
    g = random_graph(n, rng.randint(0, 3 * n), rng)
    for name in ALGORITHMS:
        first, again = (run_algorithm(g, name, seed, restarts=2) for _ in range(2))
        assert (first.kept, first.seed) == (again.kept, again.seed)


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_maximality_honesty_property(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(4, 24), rng.randint(4, 60), rng)
    for name in ("naive", "bm+", "cactus+"):
        r = run_algorithm(g, name, seed, restarts=1)
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
