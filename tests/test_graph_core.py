from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, spanning_subgraph
from maxplanar.graph import (
    DisjointSets,
    Graph,
    GraphError,
    adjacency,
    connected_components,
    spanning_forest,
)


def test_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(3, ((0, 0),))


def test_rejects_parallel_edges():
    with pytest.raises(GraphError):
        Graph(3, ((0, 1), (1, 0)))


def test_rejects_out_of_range_endpoint():
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),))


def test_subgraph_triangle_of_k4(k4):
    tri = frozenset(eid for eid, e in enumerate(k4.edges) if 3 not in e)
    sub = spanning_subgraph(k4, tri)
    assert sub.vertex_count == 4
    assert set(sub.edges) == {(0, 1), (0, 2), (1, 2)}
    assert len(connected_components(sub)) == 2  # triangle + isolated vertex


def test_connected_components_k5(k5):
    assert connected_components(k5) == [set(range(5))]


def test_connected_components_isolated():
    g = Graph(5, ())
    assert connected_components(g) == [{0}, {1}, {2}, {3}, {4}]


def test_connected_components_two_triangles():
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert connected_components(g) == [{0, 1, 2}, {3, 4, 5}]


def test_spanning_forest_k5(k5):
    forest = spanning_forest(k5)
    assert len(forest) == 4
    assert connected_components(spanning_subgraph(k5, forest)) == [set(range(5))]


def test_spanning_forest_of_tree():
    g = Graph(4, ((0, 1), (1, 2), (1, 3)))
    assert spanning_forest(g) == g.all_edges()


def test_spanning_forest_two_triangles():
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    forest = spanning_forest(g)
    assert len(forest) == 4
    assert connected_components(spanning_subgraph(g, forest)) == connected_components(g)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_spanning_forest_properties(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = data.draw(st.integers(1, 14))
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    g = random_graph(n, m, rng)
    forest = spanning_forest(g)
    comps = connected_components(g)
    assert len(forest) == g.vertex_count - len(comps)
    # acyclic and spanning: same partition, and edge count == n - #components
    fsub = spanning_subgraph(g, forest)
    assert connected_components(fsub) == comps


def test_disjoint_sets_basics():
    ds = DisjointSets(4)
    assert ds.union(0, 1)
    assert not ds.union(1, 0)
    assert ds.find(0) == ds.find(1)
    assert ds.find(2) != ds.find(0)
    assert len({ds.find(v) for v in range(4)}) == 3


def test_adjacency_lists_neighbour_and_edge_id(k4):
    adj = adjacency(k4.vertex_count, k4.edges)
    for eid, (a, b) in enumerate(k4.edges):
        assert (b, eid) in adj[a]
        assert (a, eid) in adj[b]
    # Each row is in edge-id order, one entry per incident edge.
    assert adj == [[(1, 0), (2, 1), (3, 2)], [(0, 0), (2, 3), (3, 4)],
                   [(0, 1), (1, 3), (3, 5)], [(0, 2), (1, 4), (2, 5)]]
    assert adjacency(3, ()) == [[], [], []]
