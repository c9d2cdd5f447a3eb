"""Golden kept sets of the growth postprocessor.

`grow_maximal` decides every candidate edge by a planarity test, so its kept
set depends only on the verdicts and on the seed-shuffled order.  These
values pin that output for the heuristics that grow (`naive` with two
restarts, `bm+`, `cactus+`) and for `grow_maximal` from a random planar
start, so that any change to how a growth test is computed must give the
same verdicts.  Regenerate the JSON only when the seeded order itself is
meant to change:

    PYTHONPATH=src python tests/test_growth_golden.py > tests/growth_golden.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from maxplanar.generate import gen_regular, gen_scale_free
from maxplanar.graph import Graph
from maxplanar.heuristics import grow_maximal, run_algorithm
from maxplanar.planarity import edge_addition_subgraph

GOLDEN_PATH = Path(__file__).parent / "growth_golden.json"
ALGORITHMS = ("naive", "bm+", "cactus+")
SEEDS = (0, 1)


def _disjoint_union(*parts: Graph, isolated: int = 0) -> Graph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in parts:
        edges.extend((a + offset, b + offset) for a, b in g.edges)
        offset += g.vertex_count
    return Graph(offset + isolated, tuple(edges))


def golden_graphs() -> dict[str, Graph]:
    graphs = {}
    for n in (60, 150):
        for d in (3, 5):
            graphs[f"regular_n{n}_d{d}"] = gen_regular(n, 2 * d, n + d)
            graphs[f"scale_free_n{n}_d{d}"] = gen_scale_free(n, d, n + d)
    graphs["disconnected"] = _disjoint_union(
        gen_regular(40, 6, 1), gen_scale_free(30, 4, 2), gen_regular(12, 2, 3), isolated=3
    )
    return graphs


def random_planar_start(g: Graph, seed: int) -> frozenset[int]:
    """A random half of a skip-mode planar subgraph: planar, tree- and
    path-rich, so growth from it starts on components full of low degrees."""
    rng = random.Random(seed)
    return frozenset(e for e in sorted(edge_addition_subgraph(g, seed)) if rng.random() < 0.5)


def compute_cells(names=None) -> dict[str, list[int]]:
    cells = {}
    for name, g in golden_graphs().items():
        if names is not None and name not in names:
            continue
        for algo in ALGORITHMS:
            for seed in SEEDS:
                kept = run_algorithm(g, algo, seed, restarts=2).kept
                cells[f"{name}/{algo}/{seed}"] = sorted(kept)
        cells[f"{name}/grow"] = sorted(grow_maximal(g, random_planar_start(g, 5), 3))
    return cells


@pytest.mark.parametrize("name", list(golden_graphs()))
def test_growth_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = compute_cells({name})
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert len(want) == len(ALGORITHMS) * len(SEEDS) + 1
    assert got == want


if __name__ == "__main__":
    cells = compute_cells()
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                            for k, v in cells.items()) + "\n}")
