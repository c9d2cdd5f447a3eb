from __future__ import annotations

import hashlib
import random

import pytest

from conftest import random_graph
from maxplanar.exact import exact_skewness
from maxplanar.generate import GeneratorSpec
from maxplanar.graph import Graph, subgraph
from maxplanar.heuristics import SubgraphResult, cactus_plus, cactus_subgraph, run_algorithm
from maxplanar.planarity import is_planar, validate_embedding
from maxplanar.planarity.types import NonPlanarStartError
from maxplanar.planarize import insert_edges_fixed


def normalized(g: Graph) -> tuple:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in g.edges))


def test_identity_when_subgraph_is_everything():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    p = insert_edges_fixed(g, g.all_edges(), 0)
    assert p.dummy_count == 0
    assert p.dummy_count == 0
    assert p.host.edges == g.edges
    validate_embedding(p.host, p.embedding)


def test_k5_single_crossing(k5):
    best = exact_skewness(k5, 5000).optimal_kept
    for seed in range(5):
        p = insert_edges_fixed(k5, best, seed)
        assert p.dummy_count == 1
        assert p.host.vertex_count == 6  # one dummy
        validate_embedding(p.host, p.embedding)
        assert normalized(p.recover_original()) == normalized(k5)


def test_k6_three_crossings(k6):
    best = exact_skewness(k6, 5000).optimal_kept
    for seed in range(5):
        p = insert_edges_fixed(k6, best, seed)
        assert p.dummy_count == 3
        validate_embedding(p.host, p.embedding)
        assert normalized(p.recover_original()) == normalized(k6)


def test_rejects_nonplanar_subgraph(k5):
    with pytest.raises(NonPlanarStartError):
        insert_edges_fixed(k5, k5.all_edges(), 0)


def test_dummy_degrees_and_origins(k6):
    best = exact_skewness(k6, 5000).optimal_kept
    p = insert_edges_fixed(k6, best, 1)
    n0 = p.original_vertex_count
    deg = [0] * p.host.vertex_count
    origins_at: dict[int, set[int]] = {}
    for hid, (a, b) in enumerate(p.host.edges):
        deg[a] += 1
        deg[b] += 1
        for v in (a, b):
            if v >= n0:
                origins_at.setdefault(v, set()).add(p.origin_map[hid])
    for d in range(n0, p.host.vertex_count):
        assert deg[d] == 4
        assert len(origins_at[d]) == 2  # each dummy lies on exactly two edges


def test_euler_holds_after_each_insertion():
    rng = random.Random(3)
    g = random_graph(12, 26, rng)
    kept = sorted(cactus_subgraph(g, 0).kept)
    deferred = [e for e in range(len(g.edges)) if e not in set(kept)]
    # insert one more edge each round; the embedding must stay valid
    for upto in range(len(deferred) + 1):
        sub = frozenset(kept) | frozenset(deferred[upto:])
        if not is_planar(subgraph(g, sub)):
            continue
        p = insert_edges_fixed(g, sub, 0, shuffle=False)
        validate_embedding(p.host, p.embedding)


def test_round_trip_random_instances():
    rng = random.Random(8)
    for trial in range(15):
        n = rng.randint(6, 30)
        g = random_graph(n, rng.randint(n, 3 * n), rng)
        sub = cactus_plus(g, trial)
        p = insert_edges_fixed(g, sub, trial)
        validate_embedding(p.host, p.embedding)
        assert normalized(p.recover_original()) == normalized(g)
        assert is_planar(p.host)


def test_accepts_subgraph_result_objects(k5):
    sub = cactus_plus(k5, 0)
    assert isinstance(sub, SubgraphResult)
    p = insert_edges_fixed(k5, sub, 0)
    assert p.dummy_count == 1


def test_disconnected_components_insert_without_crossings():
    # two triangles plus one edge between them, triangles kept
    edges = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3))
    g = Graph(6, edges)
    kept = frozenset(range(6))
    p = insert_edges_fixed(g, kept, 0)
    assert p.dummy_count == 0
    validate_embedding(p.host, p.embedding)
    assert normalized(p.recover_original()) == normalized(g)


def test_id_order_is_reproducible():
    rng = random.Random(12)
    g = random_graph(14, 30, rng)
    sub = cactus_subgraph(g, 0)
    a = insert_edges_fixed(g, sub, 0, shuffle=False)
    b = insert_edges_fixed(g, sub, 99, shuffle=False)
    assert a.host.edges == b.host.edges
    assert a.dummy_count == b.dummy_count


def output_digest(p) -> str:
    blob = repr((p.host.edges, p.embedding.rotations, p.origin_map)).encode()
    return hashlib.sha256(blob).hexdigest()


# Pinned outputs of the insertion that re-traced every face per routed edge;
# any change to routing, tie-breaking or rotation edits shows here.
GOLDEN = (
    ("regular", 50, 3, "bm", 654, "d9eacc45b39a3c6d4cf738070e16272cf70a8c68ac1dab763e94ab970af39ab7"),
    ("regular", 50, 3, "cactus", 649, "d6ac8056e6da58f62b42eeacce0777d982125e8bbf504d595ed15134dca58ef2"),
    ("regular", 50, 3, "cactus+", 378, "3eb7940db4311d63d920b68d708940df4ad37d3bdc679309df76e949e81c7292"),
    ("scale_free", 50, 3, "bm", 534, "e4844fd6c0cd4e5b9a0b225c8ed37482f6fc120429f1f3bfbcf5b1187b5b60b9"),
    ("scale_free", 50, 3, "cactus", 554, "1019ec71f9aba2007ca6c0628565549f61eb0e3fe83af956e527e1976382d242"),
    ("scale_free", 50, 3, "cactus+", 429, "b0167e6050b4630b222bb2b928fd8ebff6f77fffa0a596256516b7b25b880171"),
    ("regular", 100, 2, "bm", 512, "92d55a4f145dd7350462197343585d4020d07ad9f69bf9610d59e20e4987b2b1"),
    ("regular", 100, 2, "cactus", 628, "6de3f35590f8fcf56661f7db2feb92cdfb4590cb0c6eb72d65c173b9c7107f36"),
    ("regular", 100, 2, "cactus+", 456, "0c3e0291a296913f9fa324c18275677387039e345d5580a43ba42c66131c0d22"),
)


@pytest.mark.parametrize("family,n,density,algo,dummies,digest", GOLDEN)
def test_golden_outputs(family, n, density, algo, dummies, digest):
    g = GeneratorSpec(family, n, density, 0).build()
    p = insert_edges_fixed(g, run_algorithm(g, algo, 0), 0)
    assert p.dummy_count == dummies
    assert output_digest(p) == digest


def test_golden_output_disconnected():
    # Two components plus isolated vertices; dropping the kept edges at three
    # vertices makes some deferred edges join components before others route.
    rng = random.Random(5)
    a = random_graph(12, 30, rng)
    b = random_graph(10, 22, rng)
    g = Graph(25, a.edges + tuple((x + 12, y + 12) for x, y in b.edges))
    cut = {0, 5, 14}
    kept = frozenset(e for e in cactus_plus(g, 0).kept if not cut & set(g.edges[e]))
    p = insert_edges_fixed(g, kept, 0, shuffle=False)
    assert p.dummy_count == 30
    assert output_digest(p) == "31b74fc043a79aaef6e766f3dfee3f7bff1f21f5314002ae876035d18f89d05f"
