from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import petersen, random_graph
from maxplanar.graph import Graph, connected_components, spanning_forest, subgraph
from maxplanar.planarity import (
    PlanarGraphError,
    classify_witness,
    edge_addition_subgraph,
    embed,
    extract_kuratowski,
    is_planar,
    validate_embedding,
    witness_is_valid,
)
from maxplanar.planarity.api import minimal_nonplanar_subset
from maxplanar.planarity._lr import lr_embedding
from oracles import planar_oracle


def test_k4_planar(k4):
    assert is_planar(k4)


def test_k5_not_planar(k5):
    assert not is_planar(k5)


def test_k33_not_planar(k33):
    assert not is_planar(k33)


def test_embed_triangle_euler():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    out = embed(g)
    assert out.planar
    assert len(out.embedding.faces(g)) == 2
    validate_embedding(g, out.embedding)


def test_embed_k5_witness(k5):
    out = embed(k5)
    assert not out.planar
    w = out.witness
    assert w.kind == "K5"
    assert w.branch_vertices == (0, 1, 2, 3, 4)
    assert witness_is_valid(k5, w)
    assert not is_planar(subgraph(k5, w.edges))


def test_embed_petersen_witness(petersen_graph):
    out = embed(petersen_graph)
    assert not out.planar
    # 3-regular graphs cannot hold a K5 subdivision (branch degree 4)
    assert out.witness.kind == "K3_3"
    assert witness_is_valid(petersen_graph, out.witness)


def test_classify_witness_checks_whole_degree_signature():
    # K5 plus a disjoint edge: five degree-4 vertices, but two of degree 1.
    g = Graph(7, tuple(itertools.combinations(range(5), 2)) + ((5, 6),))
    with pytest.raises(PlanarGraphError):
        classify_witness(g, g.all_edges())


def test_extract_kuratowski_k5_is_itself(k5):
    w = extract_kuratowski(k5)
    assert w.edges == k5.all_edges()
    assert w.kind == "K5"


def test_extract_kuratowski_k33_is_itself(k33):
    w = extract_kuratowski(k33)
    assert w.edges == k33.all_edges()
    assert w.kind == "K3_3"


def test_extract_kuratowski_drops_pendant(k5):
    edges = k5.edges + ((0, 5),)
    g = Graph(6, edges)
    w = extract_kuratowski(g)
    assert w.edges == frozenset(range(10))
    assert w.kind == "K5"


def test_extract_kuratowski_rejects_planar(k4):
    with pytest.raises(PlanarGraphError):
        extract_kuratowski(k4)


def test_edge_addition_subgraph_planar_input_keeps_all(k4):
    for seed in range(5):
        assert edge_addition_subgraph(k4, seed) == k4.all_edges()


def test_edge_addition_subgraph_k5(k5):
    for seed in range(8):
        kept = edge_addition_subgraph(k5, seed)
        assert len(kept) == 9  # skewness(K5) = 1: exactly one backedge skipped
        assert is_planar(subgraph(k5, kept))


def test_edge_addition_subgraph_k33(k33):
    for seed in range(8):
        kept = edge_addition_subgraph(k33, seed)
        assert len(kept) == 8
        assert is_planar(subgraph(k33, kept))


def test_edge_addition_subgraph_petersen(petersen_graph):
    for seed in range(5):
        kept = edge_addition_subgraph(petersen_graph, seed)
        assert 9 <= len(kept) <= 13  # spanning tree .. m - skewness
        sub = subgraph(petersen_graph, kept)
        assert is_planar(sub)
        assert connected_components(sub) == connected_components(petersen_graph)


def test_edge_addition_subgraph_contains_spanning_structure():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng.randint(2, 30), rng.randint(0, 60), rng)
        kept = edge_addition_subgraph(g, 11)
        sub = subgraph(g, kept)
        assert is_planar(sub)
        assert connected_components(sub) == connected_components(g)
        assert len(kept) >= len(spanning_forest(g))


def test_is_planar_agrees_with_oracle_small():
    rng = random.Random(42)
    for _ in range(800):
        n = rng.randint(1, 8)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        g = Graph(n, tuple(edges))
        assert is_planar(g) == planar_oracle(n, edges)


def test_witnesses_valid_on_random_nonplanar():
    rng = random.Random(43)
    found = 0
    while found < 30:
        n = rng.randint(5, 12)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(8, len(pairs)))
        g = Graph(n, tuple(edges))
        if is_planar(g):
            continue
        found += 1
        assert witness_is_valid(g, extract_kuratowski(g))


def _plain_delete_one_edge(g: Graph, ids: list[int]) -> frozenset[int]:
    kept = list(ids)
    for eid in ids:
        trial = [e for e in kept if e != eid]
        if not is_planar(g, trial):
            kept = trial
    return frozenset(kept)


@given(st.integers(0, 2**30))
@settings(max_examples=150, deadline=None)
def test_shared_extractor_matches_plain_loop(seed):
    """The pendant-edge skip changes no output: same subset as testing every
    edge, taken in the same (shuffled) order, and a valid classified witness."""
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph(n, tuple(rng.sample(pairs, rng.randint(min(2 * n, len(pairs)), len(pairs)))))
    ids = rng.sample(range(len(g.edges)), rng.randint(9, len(g.edges)))
    if is_planar(g, ids):
        return
    got = minimal_nonplanar_subset(g, ids)
    assert got == _plain_delete_one_edge(g, ids)
    assert witness_is_valid(g, classify_witness(g, got))


def test_shared_extractor_honours_deadline(k5):
    assert minimal_nonplanar_subset(k5, range(10), deadline=0.0) is None


def test_embeddings_valid_on_random_planar():
    rng = random.Random(44)
    found = 0
    while found < 40:
        n = rng.randint(1, 16)
        m = rng.randint(0, max(0, 3 * n - 6))
        g = random_graph(n, m, rng)
        if not is_planar(g):
            continue
        found += 1
        out = embed(g)
        assert out.planar
        validate_embedding(g, out.embedding)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_engines_agree_property(data):
    """The edge-addition engine and the left-right embedder are independent
    implementations; they must give the same verdict everywhere."""
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = data.draw(st.integers(1, 14))
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    g = random_graph(n, m, rng)
    bm = is_planar(g)
    lr = lr_embedding(g.vertex_count, g.edges) is not None
    assert bm == lr


@given(st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_edge_addition_subgraph_deterministic(seed):
    g = petersen()
    assert edge_addition_subgraph(g, seed) == edge_addition_subgraph(g, seed)
