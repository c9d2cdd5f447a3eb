"""Graph file I/O.

Two formats:
  * edge_list (.el): first line is the vertex count, then one "u v" pair per
    line, 0-indexed.  Writing then reading is byte-exact.
  * gml_subset (.gml): one top-level graph [ ... ] list, whose own
    node [ id ... ] and edge [ source ... target ... ] lists make the graph;
    ids may be arbitrary integers and are mapped to 0..n-1 in file order.
    Other keys at any level (yEd's Creator, a node's label), quoted strings
    and nested [ ... ] lists are skipped, node and edge lists inside them too.

Loops, parallel edges and a repeated node id, edge source or edge target are
parse errors (with the offending line), never silently simplified.  A file
that cannot be read or written raises ValueError naming its path.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from pathlib import Path

from .graph import Graph


class ParseError(ValueError):
    def __init__(self, path: str | Path, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def detect_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".el":
        return "edge_list"
    if suffix == ".gml":
        return "gml_subset"
    raise ValueError(f"cannot detect graph format from {path!r} (use .el or .gml)")


def read_text(path: str | Path) -> str:
    """`path` read as UTF-8; a path that cannot be read or decoded raises ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte offset {exc.start}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` in UTF-8, with a file name's undecodable bytes
    as they came; failure raises ValueError naming the path."""
    try:
        Path(path).write_text(text, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ValueError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def claim_output(path: str | Path) -> None:
    """Refuse an unwritable `path` up front; opened for append, a file keeps its bytes."""
    try:
        Path(path).open("ab").close()
    except OSError as exc:
        raise ValueError(f"{path}: cannot write: {exc.strerror or exc}") from exc


def make_dir(path: str | Path) -> Path:
    """Create directory `path` and its parents if absent; failure raises ValueError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{path}: cannot create directory: {exc.strerror or exc}") from exc
    return Path(path)


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def ascii_int(tok: str) -> int:
    """An ASCII decimal integer; `int` alone also takes `1_0` and non-ASCII
    digits, which no graph file, records CSV or command line means."""
    if not _DECIMAL.fullmatch(tok):
        raise ValueError(f"invalid literal for an ASCII decimal integer: {tok!r}")
    return int(tok)


def read_graph(path: str | Path, format: str | None = None) -> Graph:
    fmt = format or detect_format(path)
    if fmt == "edge_list":
        return _read_edge_list(path)
    if fmt == "gml_subset":
        return _read_gml(path)
    raise ValueError(f"unknown graph format {fmt!r}")


def _read_edge_list(path: str | Path) -> Graph:
    text = read_text(path)
    n = None
    edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ParseError(path, lineno, "expected a single vertex count")
            try:
                n = ascii_int(parts[0])
            except ValueError:
                raise ParseError(path, lineno, f"bad vertex count {parts[0]!r}")
            if n < 0:
                raise ParseError(path, lineno, "vertex count must be nonnegative")
            continue
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'u v', got {line!r}")
        try:
            a, b = ascii_int(parts[0]), ascii_int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer endpoint in {line!r}")
        if a == b:
            raise ParseError(path, lineno, f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(path, lineno, f"endpoint out of range in {line!r}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ParseError(
                path, lineno, f"duplicate edge {key} (first at line {seen[key]})"
            )
        seen[key] = lineno
        edges.append((a, b))
    if n is None:
        raise ParseError(path, 1, "empty file: missing vertex count")
    return Graph(n, tuple(edges))


# A quoted string, a bracket, or a bare word; a lone quote is unterminated.
_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]"]+|"')


def _read_gml(path: str | Path) -> Graph:
    text = read_text(path)
    # Tokenize, remembering the line of each token for error messages.
    tokens: list[tuple[str, int]] = []
    line, last = 1, 0
    for m in _GML_TOKEN.finditer(text):
        line += text.count("\n", last, m.start())
        last = m.start()
        if m.group() == '"':
            raise ParseError(path, line, "unterminated string")
        tokens.append((m.group(), line))

    # The file as a tree: each list holds (lowercased key, value, line), a
    # value being a token or a nested list.  A stack of open lists rather
    # than recursion, so no depth of nesting raises RecursionError.
    stack: list[list] = [[]]  # the top level first
    pairs = iter(tokens)
    for key, line in pairs:
        if key == "]" and len(stack) > 1:
            stack.pop()
        elif key in ("[", "]"):
            raise ParseError(path, line, f"unexpected {key!r}")
        else:
            value, at = next(pairs, ("]", line))
            if value == "]":
                raise ParseError(path, line, f"key {key!r} has no value")
            if value == "[":
                stack.append([])
                stack[-2].append((key.lower(), stack[-1], line))
            else:
                stack[-1].append((key.lower(), value, at))
    if len(stack) > 1:
        raise ParseError(path, tokens[-1][1], "unclosed [ list")

    graphs = [entry for entry in stack[0] if entry[0] == "graph"]
    if len(graphs) != 1 or isinstance(graphs[0][1], str):
        raise ParseError(path, graphs[-1][2] if graphs else 1, "expected one graph [ ... ] list")
    id_to_index: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for kind, block, line in graphs[0][1]:
        if kind not in ("node", "edge"):
            continue
        if not isinstance(block, list):
            raise ParseError(path, line, f"expected '[' after {kind!r}")
        if kind == "node":
            node_id = _gml_int(path, block, line, "id")
            if node_id in id_to_index:
                raise ParseError(path, line, f"duplicate node id {node_id}")
            id_to_index[node_id] = len(id_to_index)
            continue
        src, tgt = (_gml_int(path, block, line, key) for key in ("source", "target"))
        if src not in id_to_index or tgt not in id_to_index:
            raise ParseError(path, line, f"edge references unknown node ({src}, {tgt})")
        a, b = id_to_index[src], id_to_index[tgt]
        if a == b:
            raise ParseError(path, line, f"self-loop at node id {src}")
        pair = (a, b) if a < b else (b, a)
        if pair in seen:
            raise ParseError(path, line, f"duplicate edge between ids {src} and {tgt}")
        seen.add(pair)
        edges.append((a, b))
    return Graph(len(id_to_index), tuple(edges))


def _gml_int(path: str | Path, block: list, line: int, key: str) -> int:
    """The one integer value of `key` in the node or edge list `block`, whose key is at `line`."""
    values = [(value, at) for k, value, at in block if k == key and isinstance(value, str)]
    if not values:
        raise ParseError(path, line, f"missing {key!r}")
    if len(values) > 1:
        raise ParseError(path, values[1][1], f"repeated {key!r}")
    try:
        return ascii_int(values[0][0])
    except ValueError as exc:
        raise ParseError(path, values[0][1], f"{key!r}: {exc}")


def write_graph(g: Graph, path: str | Path) -> None:
    write_subgraph(g, g.all_edges(), path)


def write_subgraph(g: Graph, kept: Iterable[int], path: str | Path) -> None:
    """Write the edges `kept` of g, ids read by `Graph.check_edge_set`, and all
    its vertices; the extension picks the format."""
    pairs = [g.edges[eid] for eid in sorted(g.check_edge_set(kept))]
    if detect_format(path) == "edge_list":
        lines = [str(g.vertex_count)] + [f"{a} {b}" for a, b in pairs]
    else:
        lines = ["graph ["]
        lines += [f"  node [ id {v} ]" for v in range(g.vertex_count)]
        lines += [f"  edge [ source {a} target {b} ]" for a, b in pairs]
        lines.append("]")
    write_text(path, "\n".join(lines) + "\n")
