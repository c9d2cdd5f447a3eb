"""Output checks on the traced run's results, and the output digest.

Planarity is checked with networkx `check_planarity`, an oracle independent
of both of the program's planarity engines.  The checks run after the traced
run has finished, outside every timed region.
"""

from __future__ import annotations

import hashlib

import networkx as nx


def _nx_graph(n: int, edges) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def _planar(n: int, edges) -> bool:
    return nx.check_planarity(_nx_graph(n, edges))[0]


def kept_ids(label: str, captured: dict) -> frozenset[int] | None:
    """The kept edge ids of a traced cell, or None if nothing was captured."""
    if label == "exact":
        result = captured.get("exact")
        return None if result is None else result.optimal_kept
    sub = captured.get("sub")
    return None if sub is None else sub.kept


def check_cell(g, label: str, traced_record, captured: dict, records: list) -> list[str]:
    """Problems found in one cell: its traced results and its untraced records."""
    problems: list[str] = []
    if traced_record.status != "ok":
        problems.append(f"traced run status {traced_record.status}")
    kept = kept_ids(label, captured)
    if kept is None:
        return problems + ["no result captured"]
    n, m = g.vertex_count, len(g.edges)
    if not _planar(n, (g.edges[e] for e in kept)):
        problems.append("kept set is not planar")

    sub = captured.get("sub")
    if sub is not None and sub.algorithm in ("bm", "cactus"):
        spanned = nx.number_connected_components(_nx_graph(n, (g.edges[e] for e in kept)))
        if spanned != nx.number_connected_components(_nx_graph(n, g.edges)):
            problems.append(f"{sub.algorithm} output does not span the input's components")

    crossings = None
    if label.startswith("planarize:"):
        p = captured.get("planarized")
        if p is None:
            return problems + ["no planarization captured"]
        crossings = p.dummy_count
        try:
            recovered = p.recover_original()
        except AssertionError as exc:
            problems.append(f"recover_original() failed: {exc}")
        else:
            if recovered.vertex_count != n or [tuple(sorted(e)) for e in recovered.edges] != [
                tuple(sorted(e)) for e in g.edges
            ]:
                problems.append("recover_original() differs from the input")
        if not _planar(p.host.vertex_count, p.host.edges):
            problems.append("planarized host is not planar")

    if label == "exact":
        result = captured["exact"]
        incumbent = captured.get("incumbent")
        if result.status != "optimal":
            problems.append(f"exact status {result.status}")
        if result.skewness != m - len(kept):
            problems.append("exact skewness does not match its kept set")
        if incumbent is None or result.skewness > m - len(incumbent.kept):
            problems.append("exact skewness exceeds the cactus+ skewness")

    for r in records:
        if r.status != "ok":
            problems.append(f"{r.instance}: status {r.status}")
        elif r.edges_kept != len(kept):
            problems.append(f"{r.instance}: edges_kept {r.edges_kept} != traced {len(kept)}")
        elif r.crossings != crossings:
            problems.append(f"{r.instance}: crossings {r.crossings} != traced {crossings}")
    return problems


def digest_line(key, label: str, captured: dict) -> str:
    """(instance, label, seed, sorted kept ids, crossings) of one cell."""
    kept = kept_ids(label, captured)
    ids = "-" if kept is None else ",".join(map(str, sorted(kept)))
    p = captured.get("planarized") if label.startswith("planarize:") else None
    cross = "" if p is None else str(p.dummy_count)
    return f"{key.grid}\t{key.instance}\t{label}\t{key.seed}\t{ids}\t{cross}"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
