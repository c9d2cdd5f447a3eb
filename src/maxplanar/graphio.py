"""Graph file I/O.

Two formats:
  * edge_list (.el): first line is the vertex count, then one "u v" pair per
    line, 0-indexed.  Writing then reading is byte-exact.
  * gml_subset (.gml): graph [ node [ id ... ] edge [ source ... target ... ] ]
    blocks; ids may be arbitrary integers and are mapped to 0..n-1 in file
    order.  Other keys, quoted strings and nested [ ... ] lists inside node
    and edge blocks are skipped.

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

    ids_in_order: list[int] = []
    id_to_index: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}

    def read_int(values: dict[str, list[int]], key: str, what: str) -> int | None:
        if key not in values:
            return None
        first, *again = values[key]
        if again:
            raise ParseError(path, tokens[again[0]][1], f"repeated {what}")
        tok, line = tokens[first]
        try:
            return ascii_int(tok)
        except ValueError:
            raise ParseError(path, line, f"expected integer {what}, got {tok!r}")

    i = 0
    while i < len(tokens):
        tok, line = tokens[i]
        low = tok.lower()
        if low == "node":
            values, i = _read_block(path, tokens, _expect(path, tokens, i + 1, "["))
            node_id = read_int(values, "id", "node id")
            if node_id is None:
                raise ParseError(path, line, "node block without id")
            if node_id in id_to_index:
                raise ParseError(path, line, f"duplicate node id {node_id}")
            id_to_index[node_id] = len(ids_in_order)
            ids_in_order.append(node_id)
        elif low == "edge":
            values, i = _read_block(path, tokens, _expect(path, tokens, i + 1, "["))
            src = read_int(values, "source", "edge source")
            tgt = read_int(values, "target", "edge target")
            if src is None or tgt is None:
                raise ParseError(path, line, "edge block needs source and target")
            if src not in id_to_index or tgt not in id_to_index:
                raise ParseError(path, line, f"edge references unknown node ({src}, {tgt})")
            a, b = id_to_index[src], id_to_index[tgt]
            if a == b:
                raise ParseError(path, line, f"self-loop at node id {src}")
            key2 = (a, b) if a < b else (b, a)
            if key2 in seen:
                raise ParseError(path, line, f"duplicate edge between ids {src} and {tgt}")
            seen[key2] = line
            edges.append((a, b))
        else:
            i += 1
    return Graph(len(ids_in_order), tuple(edges))


def _read_block(
    path: str | Path, tokens: list[tuple[str, int]], i: int
) -> tuple[dict[str, list[int]], int]:
    """Key/value pairs of the block whose body starts at token i.

    Returns {lowercased key: token indices of its values, in file order} for
    the block's own scalar values (nested [ ... ] lists are skipped), and the
    index after the closing bracket.
    """
    values: dict[str, list[int]] = {}
    while i < len(tokens) and tokens[i][0] != "]":
        key = tokens[i][0]
        if i + 1 >= len(tokens) or tokens[i + 1][0] == "]":
            raise ParseError(path, tokens[i][1], f"key {key!r} has no value")
        if tokens[i + 1][0] == "[":
            depth, i = 1, i + 2
            while i < len(tokens) and depth:
                depth += {"[": 1, "]": -1}.get(tokens[i][0], 0)
                i += 1
            if depth:
                break
        else:
            values.setdefault(key.lower(), []).append(i + 1)
            i += 2
    if i >= len(tokens):
        raise ParseError(path, tokens[-1][1], "unclosed [ block")
    return values, i + 1


def _expect(path: str | Path, tokens: list[tuple[str, int]], i: int, want: str) -> int:
    if i >= len(tokens) or tokens[i][0] != want:
        line = tokens[min(i, len(tokens) - 1)][1]
        raise ParseError(path, line, f"expected {want!r}")
    return i + 1


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
