"""Golden output of the skip-mode edge-addition pass.

`edge_addition_subgraph` keeps every edge the pass can embed and skips the
rest, so its kept set depends on how the pass walks and merges bicomps.
These values pin the number of skipped edges and a sha256 of the sorted kept
ids, on regular and scale-free graphs up to n=2000 and on a disconnected graph
with isolated vertices, so that any change to how the pass finds pertinent
bicomps must give the same kept sets.  Regenerate the JSON only when the
seeded DFS order itself is meant to change:

    PYTHONPATH=src python tests/test_skip_golden.py > tests/skip_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import disjoint_union
from maxplanar.generate import GeneratorSpec
from maxplanar.graph import Graph
from maxplanar.planarity import edge_addition_subgraph

GOLDEN_PATH = Path(__file__).parent / "skip_golden.json"
SEEDS = (0, 1)


def golden_graphs() -> dict[str, Graph]:
    graphs = {}
    for family in ("regular", "scale_free"):
        for n in (60, 300, 1000, 2000):
            for d in (2, 5):
                graphs[f"{family}_n{n}_d{d}"] = GeneratorSpec(family, n, d, n + d).build()
    graphs["disconnected"] = disjoint_union(
        GeneratorSpec("regular", 80, 5, 1).build(), GeneratorSpec("scale_free", 50, 3, 2).build(),
        isolated=4,
    )
    return graphs


def compute_cells(names=None) -> dict[str, dict[str, object]]:
    cells = {}
    for name, g in golden_graphs().items():
        if names is not None and name not in names:
            continue
        for seed in SEEDS:
            kept = sorted(edge_addition_subgraph(g, seed))
            digest = hashlib.sha256(",".join(map(str, kept)).encode()).hexdigest()
            cells[f"{name}/{seed}"] = {"skipped": len(g.edges) - len(kept), "kept_sha256": digest}
    return cells


@pytest.mark.parametrize("name", list(golden_graphs()))
def test_skip_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert len(want) == len(SEEDS)
    assert compute_cells({name}) == want


if __name__ == "__main__":
    print(json.dumps(compute_cells(), indent=1))
