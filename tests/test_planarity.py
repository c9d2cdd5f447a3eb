from __future__ import annotations

import dataclasses
import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, disjoint_union, petersen, random_graph, spanning_subgraph
from maxplanar.exact import exact_skewness, export_ilp
from maxplanar.graph import Graph, GraphError, connected_components, spanning_forest
from maxplanar.graphio import write_subgraph
from maxplanar.heuristics import grow_maximal
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
from maxplanar.planarity.types import Embedding
from maxplanar.planarize import insert_edges_fixed
from oracles import planar_oracle


def test_k4_planar(k4):
    assert is_planar(k4)


def test_k5_not_planar(k5):
    assert not is_planar(k5)


def test_k33_not_planar(k33):
    assert not is_planar(k33)


@pytest.mark.parametrize("bad", [-1, 6])
def test_is_planar_rejects_foreign_ids(k4, bad):
    # A negative id must not index the edge tuple from its end.
    with pytest.raises(GraphError, match=f"edge id {bad} not in host graph"):
        is_planar(k4, [0, bad, 1])


TRIANGLE = Graph(3, ((0, 1), (1, 2), (0, 2)))
K5 = complete_graph(5)


def _write_subgraph_text(ids) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        write_subgraph(K5, ids, Path(tmp) / "sub.el")
        return (Path(tmp) / "sub.el").read_text()


# Every function that takes edge ids, as (valid ids of K5 starting at 0,
# the call on K5).  Each reads its ids through Graph.check_edge_set.
EDGE_ID_INPUTS = {
    "is_planar": (range(9), lambda ids: is_planar(K5, ids)),
    "minimal_nonplanar_subset": (range(10), lambda ids: minimal_nonplanar_subset(K5, ids)),
    "classify_witness": (range(10), lambda ids: classify_witness(K5, ids)),
    "grow_maximal": (range(3), lambda ids: grow_maximal(K5, ids, 0)),
    "exact_skewness": (range(9), lambda ids: exact_skewness(K5, 5000, initial_incumbent=ids)),
    "insert_edges_fixed": (range(9), lambda ids: insert_edges_fixed(K5, ids, 0)),
    "write_subgraph": (range(9), _write_subgraph_text),
    "export_ilp": (range(10), lambda ids: export_ilp(K5, [ids])),
}


def _with_repeated_zero(name):
    ids, call = EDGE_ID_INPUTS[name]
    return lambda: call(iter([*ids, 0]))


@pytest.mark.parametrize("name", EDGE_ID_INPUTS)
def test_edge_ids_are_read_once(name):
    # A list, a set and a one-shot iterator of the same ids are one input.
    ids, call = EDGE_ID_INPUTS[name]
    want = call(list(ids))
    assert call(set(ids)) == want
    assert call(iter(ids)) == want


@pytest.mark.parametrize("bad", [-1, 10])
@pytest.mark.parametrize("name", EDGE_ID_INPUTS)
def test_foreign_edge_ids_are_refused(name, bad):
    ids, call = EDGE_ID_INPUTS[name]
    with pytest.raises(GraphError, match=f"edge id {bad} not in host graph"):
        call(iter([*ids, bad]))


@pytest.mark.parametrize("bad, shown", [(True, "True"), (0.0, "0.0"), ("0", "'0'")],
                         ids=["bool", "float", "str"])
@pytest.mark.parametrize("name", EDGE_ID_INPUTS)
def test_non_integer_edge_ids_are_refused(name, bad, shown):
    # A bool would pass for edge 1, and a float or a str would reach an id
    # comparison or an index: each is refused by its type, by name.
    ids, call = EDGE_ID_INPUTS[name]
    with pytest.raises(GraphError, match=f"edge id {shown} is not an int"):
        call(iter([*ids, bad]))


@pytest.mark.parametrize("call", [
    lambda: is_planar(Graph(3, ((0, 1), (1, 2))), [0, 0, 0, 0]),
    lambda: grow_maximal(TRIANGLE, [0, 0], 0),
    lambda: grow_maximal(TRIANGLE, [0, 0, 0, 0], 0),
    lambda: minimal_nonplanar_subset(Graph(5, tuple(itertools.combinations(range(5), 2))),
                                     list(range(10)) + [0]),
    *map(_with_repeated_zero, EDGE_ID_INPUTS),
], ids=["is_planar", "grow_maximal", "grow_maximal-four-copies", "minimal_nonplanar_subset",
        *(f"{name}-iterator" for name in EDGE_ID_INPUTS)])
def test_repeated_edge_ids_are_refused(call):
    # Read as parallel edges, repeated ids would make a path test non-planar,
    # stop a growth short of maximal, and leave a planar K5 "witness".
    with pytest.raises(GraphError, match="edge id 0 repeated"):
        call()


@pytest.mark.parametrize("bad", [-10, 10])
def test_classify_witness_checks_ids(k5, bad):
    ids = frozenset(range(1, 10)) | {bad}
    with pytest.raises(GraphError, match=f"edge id {bad} not in host graph"):
        classify_witness(k5, ids)
    witness = classify_witness(k5, k5.all_edges())
    assert witness_is_valid(k5, witness)
    assert not witness_is_valid(k5, dataclasses.replace(witness, edges=ids))


def test_embed_triangle_euler():
    g = Graph(3, ((0, 1), (1, 2), (0, 2)))
    out = embed(g)
    assert out.planar
    assert len(out.embedding.faces(g)) == 2
    validate_embedding(g, out.embedding)


# A planar rotation system of K4 (four faces; see test_faces_pinned_literally).
K4_PLANAR = ((0, 2, 1), (0, 3, 4), (3, 1, 5), (5, 2, 4))


def test_validate_embedding_refuses_missing_incidence(k4):
    with pytest.raises(AssertionError, match="rotation of vertex 0 does not match"):
        validate_embedding(k4, Embedding(((0, 2),) + K4_PLANAR[1:]))


def test_validate_embedding_refuses_nonplanar_rotation(k4):
    # Reversing one vertex's rotation leaves two faces: K4 drawn on a torus.
    emb = Embedding(((0, 1, 2),) + K4_PLANAR[1:])
    assert len(emb.faces(k4)) == 2
    with pytest.raises(AssertionError, match="Euler"):
        validate_embedding(k4, emb)


def test_validate_embedding_refuses_nonplanar_component(k4, k5):
    # No rotation system of K5 is planar, whatever the other components are.
    validate_embedding(disjoint_union(k4, isolated=1), Embedding(K4_PLANAR + ((),)))
    g = disjoint_union(k4, k5, isolated=1)
    incident = [[e for e, edge in enumerate(g.edges) if v in edge] for v in range(4, 9)]
    orders = [[(r[0],) + p for p in itertools.permutations(r[1:])] for r in incident]
    for k5_rotations in itertools.product(*orders):
        with pytest.raises(AssertionError, match="Euler"):
            validate_embedding(g, Embedding(K4_PLANAR + k5_rotations + ((),)))


def test_faces_pinned_literally(k4):
    # Arcs are (tail, edge id); faces come in least-arc order, each starting
    # at its least arc.  The isolated vertex 7 has no arcs and lies on no face.
    emb = Embedding(((0, 2, 1), (0, 3, 4), (3, 1, 5), (5, 2, 4)))
    assert emb.faces(k4) == [
        [(0, 0), (1, 3), (2, 1)],
        [(0, 2), (3, 4), (1, 0)],
        [(0, 1), (2, 5), (3, 2)],
        [(1, 4), (3, 5), (2, 3)],
    ]
    g = Graph(8, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 3), (3, 6)))
    emb = Embedding(((0, 2), (0, 1), (1, 2), (3, 5, 6), (3, 4), (4, 5), (6,), ()))
    assert emb.faces(g) == [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 2), (2, 1), (1, 0)],
        [(3, 3), (4, 4), (5, 5), (3, 6), (6, 6)],
        [(3, 5), (5, 4), (4, 3)],
    ]


def test_embed_k5_witness(k5):
    out = embed(k5)
    assert not out.planar
    w = out.witness
    assert w.kind == "K5"
    assert w.branch_vertices == (0, 1, 2, 3, 4)
    assert witness_is_valid(k5, w)
    assert not is_planar(k5, w.edges)


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
        assert is_planar(k5, kept)


def test_edge_addition_subgraph_k33(k33):
    for seed in range(8):
        kept = edge_addition_subgraph(k33, seed)
        assert len(kept) == 8
        assert is_planar(k33, kept)


def test_edge_addition_subgraph_petersen(petersen_graph):
    for seed in range(5):
        kept = edge_addition_subgraph(petersen_graph, seed)
        assert 9 <= len(kept) <= 13  # spanning tree .. m - skewness
        sub = spanning_subgraph(petersen_graph, kept)
        assert is_planar(sub)
        assert connected_components(sub) == connected_components(petersen_graph)


def test_edge_addition_subgraph_contains_spanning_structure():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng.randint(2, 30), rng.randint(0, 60), rng)
        kept = edge_addition_subgraph(g, 11)
        sub = spanning_subgraph(g, kept)
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
