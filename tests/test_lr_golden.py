"""Golden output of the left-right embedder.

`lr_embedding` returns per-vertex rotations of edge ids, and
`insert_edges_fixed` routes new edges through the faces those rotations
define, so the planarized output depends on the exact rotation order, not
just on planarity.  These values pin a sha256 of the rotations (or `None`
for a non-planar input) on bm, cactus and cactus+ subgraphs of regular and
scale-free graphs up to n=1000, each also with its edges in a shuffled
order, on a disconnected graph with isolated vertices, and on three
non-planar graphs.  Regenerate the JSON only when the embedding itself is
meant to change:

    PYTHONPATH=src python tests/test_lr_golden.py > tests/lr_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import complete_bipartite, complete_graph, disjoint_union, spanning_subgraph
from maxplanar.generate import GeneratorSpec
from maxplanar.graph import Graph
from maxplanar.heuristics import run_algorithm
from maxplanar.planarity._lr import lr_embedding

GOLDEN_PATH = Path(__file__).parent / "lr_golden.json"
ALGORITHMS = ("bm", "cactus", "cactus+")
SEEDS = (0, 1)


def _shuffled(g: Graph, seed: int) -> Graph:
    edges = list(g.edges)
    random.Random(seed).shuffle(edges)
    return Graph(g.vertex_count, tuple(edges))


def host_specs() -> dict[str, GeneratorSpec]:
    return {
        f"{family}_n{n}_d{d}": GeneratorSpec(family, n, d, n + d)
        for family in ("regular", "scale_free")
        for n in (50, 300, 1000)
        for d in (2, 5)
    }


def case_graphs(name: str) -> dict[str, Graph]:
    """The graphs pinned under one test id, keyed by cell name."""
    if name == "disconnected":
        parts = [
            spanning_subgraph(g, run_algorithm(g, "bm", 0).kept)
            for g in (GeneratorSpec("regular", 80, 5, 1).build(), GeneratorSpec("scale_free", 50, 3, 2).build())
        ]
        g = disjoint_union(*parts, isolated=4)
        return {"disconnected": g, "disconnected/shuffled": _shuffled(g, 7)}
    if name == "nonplanar":
        return {"nonplanar/k5": complete_graph(5), "nonplanar/k33": complete_bipartite(3, 3),
                "nonplanar/regular_n50_d5": GeneratorSpec("regular", 50, 5, 55).build()}
    g = host_specs()[name].build()
    cells = {}
    for algo in ALGORITHMS:
        for seed in SEEDS:
            sub = spanning_subgraph(g, run_algorithm(g, algo, seed).kept)
            cells[f"{name}/{algo}/{seed}"] = sub
            cells[f"{name}/{algo}/{seed}/shuffled"] = _shuffled(sub, seed)
    return cells


def rotations_digest(g: Graph) -> str | None:
    rotations = lr_embedding(g.vertex_count, g.edges)
    if rotations is None:
        return None
    return hashlib.sha256(json.dumps(rotations, separators=(",", ":")).encode()).hexdigest()


NAMES = [*host_specs(), "disconnected", "nonplanar"]


def compute_cells(names=NAMES) -> dict[str, str | None]:
    return {cell: rotations_digest(g) for name in names for cell, g in case_graphs(name).items()}


@pytest.mark.parametrize("name", NAMES)
def test_lr_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    got = compute_cells([name])
    assert got == want
    assert (name == "nonplanar") == all(v is None for v in got.values())


if __name__ == "__main__":
    print(json.dumps(compute_cells(), indent=1))
