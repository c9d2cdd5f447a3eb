from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxplanar
from conftest import random_graph
from maxplanar.bench import BenchmarkRecord, emit_records_csv, read_records_csv
from maxplanar.graph import Graph
from maxplanar.graphio import ParseError, read_graph, read_text, write_graph, write_subgraph


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


@pytest.mark.parametrize("body, line, message", [
    ("3 4\n0 1\n", 1, "expected a single vertex count"),
    ("-1\n", 1, "vertex count must be nonnegative"),
    ("3\n0 1\n0 1 2\n", 3, "expected 'u v', got '0 1 2'"),
    ("3\n0 1\n1 3\n", 3, "endpoint out of range in '1 3'"),
], ids=["two-token-count", "negative-count", "three-token-edge", "endpoint-out-of-range"])
def test_edge_list_malformed_line_named(tmp_path, body, line, message):
    p = tmp_path / "bad.el"
    p.write_text(body)
    with pytest.raises(ParseError, match=rf"bad\.el:{line}: {re.escape(message)}$"):
        read_graph(p)


def test_edge_list_bad_token(tmp_path):
    p = tmp_path / "bad.el"
    p.write_text("3\n0 x\n")
    with pytest.raises(ParseError):
        read_graph(p)


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "0x1", "1.0"])
@pytest.mark.parametrize("where", ["count", "endpoint"])
def test_edge_list_malformed_integer_names_line(tmp_path, token, where):
    # `int` reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    p = tmp_path / "bad.el"
    p.write_text(f"{token}\n" if where == "count" else f"12\n0 1\n{token} 2\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_graph(p)
    assert exc.value.line == (1 if where == "count" else 3)


@pytest.mark.parametrize("token", ["1_0", "\u0661\u0660", "\uff11\uff10"])
@pytest.mark.parametrize("key", ["id", "source"])
def test_gml_malformed_integer_names_line(tmp_path, token, key):
    # Read by `int`, "id 1_0" used to match "source 10".
    ids = {"id": token, "source": "10"}
    if key == "source":
        ids = {"id": "10", "source": token}
    p = tmp_path / "g.gml"
    p.write_text(
        f"graph [\n node [ id {ids['id']} ]\n node [ id 2 ]\n"
        f" edge [ source {ids['source']} target 2 ]\n]\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=rf"g\.gml:{2 if key == 'id' else 4}: "):
        read_graph(p)


def test_signed_decimal_integers_still_parse(tmp_path):
    p = tmp_path / "g.gml"
    p.write_text("graph [\n node [ id -1 ]\n node [ id +2 ]\n edge [ source -1 target 2 ]\n]\n")
    assert read_graph(p) == Graph(2, ((0, 1),))


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
    # The node and edge inside `graphics` used to be read as the graph's own,
    # and `label node` was refused as a node without its list.
    p = tmp_path / "g.gml"
    p.write_text(
        'Creator "yEd" Version 2.2\n'
        'graph [\n directed 0 label node\n'
        ' graphics [ node [ id 7 ] edge [ source 4 target 7 ] ]\n'
        ' node [ id 4 label "a ] [ id 9" graphics [ x 1.0 y 2.0 ] ]\n'
        ' node [ id 5 data [ id 8 inner [ w 1 ] ] label "target 4" ]\n'
        ' node [ id 6 ]\n'
        ' edge [ source 4 graphics [ type "line" Line [ point [ x 0 ] ] ] target 5 ]\n'
        ' edge [ label "source 6"\n   source 5 target 6 ]\n]\n'
    )
    g = read_graph(p)
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2))


G = "graph [\n"
THREE_NODES = " node [ id 0 ]\n node [ id 1 ]\n node [ id 2 ]\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        (G + ' node [ id 0 label "open ]\n]\n', 2, "unterminated string"),
        (G + " node [ id 0 graphics [ x 1 ]\n", 2, "unclosed [ list"),  # the only unclosed case
        (G + " node [ id 0 ]\n node [ id 1 ]\n edge [ source 0 target ]\n]\n", 4,
         "key 'target' has no value"),
        # A repeated id, source or target used to keep its last value silently.
        (G + " node [ id 0\n id 1 ]\n]\n", 3, "repeated 'id'"),
        (G + THREE_NODES + " edge [ source 1 target 2\n target 0 ]\n]\n", 6, "repeated 'target'"),
        (G + THREE_NODES + " edge [ source 1 target 2\n  SOURCE 0 ]\n]\n", 6, "repeated 'source'"),
        (G + ' node [ label "a" ]\n]\n', 2, "missing 'id'"),
        (G + " node [ id 0 ]\n node [ id 0 ]\n]\n", 3, "duplicate node id 0"),
        (G + " node [ id 0 ]\n node [ id 1 ]\n edge [ source 0 ]\n]\n", 4, "missing 'target'"),
        (G + THREE_NODES + " edge [ source 0 target 3 ]\n]\n", 5,
         "edge references unknown node (0, 3)"),
        (G + THREE_NODES + " edge [ source 1 target 1 ]\n]\n", 5, "self-loop at node id 1"),
        (G + " node [ id 0 ]\n node [ id 1 ]\n]\n" + G + " node [ id 2 ]\n]\n", 5,
         "expected one graph [ ... ] list"),
        (" node [ id 0 ]\n node [ id 1 ]\n edge [ source 0 target 1 ]\n", 1,
         "expected one graph [ ... ] list"),
        (G + " node [ id 0 ]\n]\n]\n", 4, "unexpected ']'"),
        ("", 1, "expected one graph [ ... ] list"),
        (G + " [ id 0 ]\n]\n", 2, "unexpected '['"),
    ],
    ids=["unterminated-string", "unclosed-block", "key-without-value",
         "repeated-node-id", "repeated-edge-target", "repeated-edge-source",
         "node-without-id", "duplicate-node-id", "edge-without-target", "unknown-node",
         "self-loop", "two-graph-lists", "no-graph-list", "unexpected-close", "empty-file",
         "list-without-key"],
)
def test_gml_malformed_blocks_rejected(tmp_path, text, line, message):
    # Before, two graph lists were merged, node and edge lists outside any
    # graph list were read, and a stray ']' or an empty file passed.
    p = tmp_path / "g.gml"
    p.write_text(text)
    with pytest.raises(ParseError, match=rf"g\.gml:{line}: {re.escape(message)}"):
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


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_gml_round_trip_through_ignorable_content(data):
    # Other top-level and graph-level keys, a graph-level list holding a node
    # and an edge of its own, and nested lists and strings inside node and
    # edge lists are all skipped.
    import tempfile

    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = data.draw(st.integers(0, 12))
    m = data.draw(st.integers(0, n * (n - 1) // 2 if n > 1 else 0))
    g = random_graph(n, m, rng) if n else Graph(0, ())
    lines = ['Creator "x"', "graph [", " directed 0", ' label "graph [ node"']
    lines.append(f" graphics [ node [ id {n} ] edge [ source 0 target {n} ] w 1 ]")
    lines += [f' node [ id {v} label "id {n}" data [ id {n} ] ]' for v in range(n)]
    lines += [f" edge [ source {a} graphics [ target {n} ] label \"x\" target {b} ]"
              for a, b in g.edges]
    lines.append("]")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.gml"
        path.write_text("\n".join(lines) + "\n")
        assert read_graph(path) == g


def test_read_text_names_path_and_offset_of_a_byte_not_utf8(tmp_path):
    p = tmp_path / "bad.el"
    p.write_bytes(b"3\n0 1\n\xc3\xa9 \xff\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: not UTF-8 text at byte offset 9$"):
        read_text(p)
    with pytest.raises(ValueError, match=r"byte offset 9"):
        read_graph(p)


@pytest.mark.parametrize("suffix", [".el", ".gml", ".csv"])
def test_leading_byte_order_mark_reads_as_without(tmp_path, suffix):
    # A marked edge list used to fail with "bad vertex count '\ufeff3'".
    def read(path):
        return read_records_csv(path) if suffix == ".csv" else read_graph(path)

    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    if suffix == ".csv":
        emit_records_csv([BenchmarkRecord("i", "s", 5, 10, "bm", 0, 9, 1.8, 0.1, "ok")], plain)
    else:
        write_graph(Graph(4, ((0, 1), (1, 2), (2, 3))), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read(marked) == read(plain)
    # A byte that is not UTF-8 is still placed from the first byte, mark included.
    offset = len(marked.read_bytes())
    marked.write_bytes(marked.read_bytes() + b"\xff\n")
    with pytest.raises(ValueError, match=rf"not UTF-8 text at byte offset {offset}$"):
        read(marked)


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # Under the C locale Python's default text encoding is ASCII; files must
    # still be read and written as UTF-8, and a bad byte named on one line.
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    emit_records_csv([BenchmarkRecord("\u00e9", "s", 5, 10, "bm", 0, 9, 1.8, 0.1, "ok")], good)
    bad.write_bytes(good.read_bytes() + b"\xff\n")
    src = str(Path(maxplanar.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*args):
        argv = [sys.executable, "-m", "maxplanar.cli", *map(str, args)]
        return subprocess.run(argv, env=env, capture_output=True, encoding="utf-8")

    done = cli("aggregate", "--records", good, "--out", tmp_path / "agg.csv")
    assert (done.returncode, done.stderr) == (0, "")
    assert "s:10,bm,1,0," in read_text(tmp_path / "agg.csv")
    done = cli("aggregate", "--records", bad, "--out", tmp_path / "agg.csv")
    assert done.returncode == 1
    offset = len(good.read_bytes())  # where the 0xff byte starts
    assert done.stderr.splitlines() == [f"error: {bad}: not UTF-8 text at byte offset {offset}"]
    # The C locale decodes the UTF-8 file name with surrogate escapes; its
    # instance id goes into the records as the name's own bytes.
    name = tmp_path / os.fsdecode("\u00e9.el".encode("utf-8"))  # also when pytest runs under C
    write_graph(Graph(3, ((0, 1), (1, 2))), name)
    done = cli("run", "--instances", name, "--algorithms", "cactus",
               "--workers", "1", "--out", tmp_path / "r.csv")
    assert (done.returncode, done.stderr) == (0, "")
    assert [r.instance for r in read_records_csv(tmp_path / "r.csv")] == ["\u00e9"]
