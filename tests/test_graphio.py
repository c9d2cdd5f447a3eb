from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from maxplanar.graph import Graph
from maxplanar.graphio import ParseError, read_graph, write_graph, write_subgraph


def test_edge_list_round_trip(tmp_path, k5):
    path = tmp_path / "k5.el"
    write_graph(k5, path)
    assert read_graph(path) == Graph(5, k5.edges)
    # bit-exact on rewrite
    text1 = path.read_text()
    write_graph(read_graph(path), path)
    assert path.read_text() == text1


def test_edge_list_path_graph(tmp_path):
    p = tmp_path / "p.el"
    p.write_text("3\n0 1\n1 2\n")
    g = read_graph(p)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))


def test_edge_list_duplicate_edge_names_line(tmp_path):
    p = tmp_path / "dup.el"
    p.write_text("3\n0 1\n1 2\n1 0\n")
    with pytest.raises(ParseError) as exc:
        read_graph(p)
    assert exc.value.line == 4


def test_edge_list_loop_rejected_with_line(tmp_path):
    p = tmp_path / "loop.el"
    p.write_text("3\n0 0\n")
    with pytest.raises(ParseError) as exc:
        read_graph(p)
    assert exc.value.line == 2


def test_edge_list_bad_token(tmp_path):
    p = tmp_path / "bad.el"
    p.write_text("3\n0 x\n")
    with pytest.raises(ParseError):
        read_graph(p)


def test_gml_k4(tmp_path, k4):
    p = tmp_path / "k4.gml"
    write_graph(k4, p)
    g = read_graph(p)
    assert g == Graph(4, k4.edges)


def test_gml_arbitrary_ids(tmp_path):
    p = tmp_path / "g.gml"
    p.write_text(
        "graph [\n node [ id 10 ]\n node [ id 7 ]\n"
        " edge [ source 10 target 7 ]\n]\n"
    )
    g = read_graph(p)
    assert g.vertex_count == 2
    assert g.edges == ((0, 1),)  # ids mapped in file order


def test_gml_skips_nested_blocks_and_strings(tmp_path):
    p = tmp_path / "g.gml"
    p.write_text(
        'graph [\n directed 0\n'
        ' node [ id 4 label "a ] [ id 9" graphics [ x 1.0 y 2.0 ] ]\n'
        ' node [ id 5 data [ id 8 inner [ w 1 ] ] label "target 4" ]\n'
        ' node [ id 6 ]\n'
        ' edge [ source 4 graphics [ type "line" Line [ point [ x 0 ] ] ] target 5 ]\n'
        ' edge [ label "source 6"\n   source 5 target 6 ]\n]\n'
    )
    g = read_graph(p)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "body",
    [
        ' node [ id 0 label "open ]\n',  # unterminated string
        " node [ id 0 graphics [ x 1 ]\n",  # unclosed node block
        " node [ id 0 ]\n node [ id 1 ]\n edge [ source 0 target ]\n",
    ],
    ids=["unterminated-string", "unclosed-block", "key-without-value"],
)
def test_gml_malformed_blocks_rejected(tmp_path, body):
    p = tmp_path / "g.gml"
    p.write_text("graph [\n" + body)
    with pytest.raises(ParseError):
        read_graph(p)


def test_gml_duplicate_edge(tmp_path):
    p = tmp_path / "g.gml"
    p.write_text(
        "graph [\n node [ id 0 ]\n node [ id 1 ]\n"
        " edge [ source 0 target 1 ]\n edge [ source 1 target 0 ]\n]\n"
    )
    with pytest.raises(ParseError):
        read_graph(p)


def test_write_subgraph_empty(tmp_path, k5):
    p = tmp_path / "empty.el"
    write_subgraph(k5, frozenset(), p)
    g = read_graph(p)
    assert g.vertex_count == 5 and g.edges == ()


def test_write_subgraph_all_matches_write_graph(tmp_path, k5):
    p1 = tmp_path / "a.el"
    p2 = tmp_path / "b.el"
    write_subgraph(k5, k5.all_edges(), p1)
    write_graph(k5, p2)
    assert p1.read_text() == p2.read_text()


def test_unknown_extension():
    with pytest.raises(ValueError):
        read_graph("graph.txt")


def test_missing_count(tmp_path):
    p = tmp_path / "x.el"
    p.write_text("\n")
    with pytest.raises(ParseError):
        read_graph(p)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_round_trip_property(data):
    import tempfile

    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = data.draw(st.integers(0, 15))
    m = data.draw(st.integers(0, n * (n - 1) // 2 if n > 1 else 0))
    g = random_graph(n, m, rng) if n else Graph(0, ())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.el"
        write_graph(g, path)
        back = read_graph(path)
        assert back.vertex_count == g.vertex_count
        assert set(back.edges) == set(g.edges)
        text = path.read_text()
        write_graph(back, path)
        assert path.read_text() == text
