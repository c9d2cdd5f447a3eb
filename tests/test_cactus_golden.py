"""Golden output of the greedy triangular cactus.

`build_cactus` scans edges in seed-shuffled order and takes the first
triangle whose third vertex lies in a third component, so its output depends
on the order it scans neighbours in and on the edge ids it reads for the two
other triangle edges.  These values pin a sha256 of the sorted kept edge ids,
with the triangle count (the kept set's 3-cycles) and the connector count
(the other kept edges), on regular and scale-free graphs up to n=1000 and on
a disconnected graph with isolated vertices, so that any change to how the
cactus finds triangles must give the same kept set.  Regenerate the
JSON only when the seeded scan order itself is meant to change:

    PYTHONPATH=src python tests/test_cactus_golden.py > tests/cactus_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import disjoint_union
from maxplanar.generate import GeneratorSpec, gen_regular, gen_scale_free
from maxplanar.graph import Graph
from maxplanar.heuristics import build_cactus
from oracles import triangles_in

GOLDEN_PATH = Path(__file__).parent / "cactus_golden.json"
SEEDS = (0, 1)


def golden_graphs() -> dict[str, Graph]:
    graphs = {}
    for family in ("regular", "scale_free"):
        for n in (60, 300, 1000):
            for d in (2, 5):
                graphs[f"{family}_n{n}_d{d}"] = GeneratorSpec(family, n, d, n + d).build()
    # The disconnected graph of the growth golden test.
    graphs["disconnected"] = disjoint_union(
        gen_regular(40, 6, 1), gen_scale_free(30, 4, 2), gen_regular(12, 2, 3), isolated=3
    )
    return graphs


def compute_cells(names=None) -> dict[str, dict[str, object]]:
    cells = {}
    for name, g in golden_graphs().items():
        if names is not None and name not in names:
            continue
        for seed in SEEDS:
            kept = build_cactus(g, seed)
            triangles = len(triangles_in(g, kept))
            cells[f"{name}/{seed}"] = {
                "triangles": triangles,
                "connectors": len(kept) - 3 * triangles,
                "sha256": hashlib.sha256(json.dumps(sorted(kept)).encode()).hexdigest(),
            }
    return cells


@pytest.mark.parametrize("name", list(golden_graphs()))
def test_cactus_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert len(want) == len(SEEDS)
    assert compute_cells({name}) == want


if __name__ == "__main__":
    print(json.dumps(compute_cells(), indent=1))
