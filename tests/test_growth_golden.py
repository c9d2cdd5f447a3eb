"""Golden kept sets of the growth postprocessor.

`grow_maximal` decides every candidate edge by a planarity test, so its kept
set depends only on the verdicts and on the seed-shuffled order.  These
values pin that output for the heuristics that grow (`naive` with two
restarts, `bm+`, `cactus+`) and for `grow_maximal` from a random planar
start, and, with one naive restart, on regular and scale-free n=1000, d=5,
where most growth tests reject; so that any change to how a growth test is
computed must give the same verdicts.  Scale-free n=3000, d=5 `cactus+`, where
an accept touches the largest pieces of its component's kernel, is pinned by a
sha256 of its kept set.  Regenerate the JSON only when the seeded order itself is
meant to change:

    PYTHONPATH=src python tests/test_growth_golden.py > tests/growth_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import disjoint_union
from oracles import FreshKernelCheck
from maxplanar.generate import gen_regular, gen_scale_free
from maxplanar.graph import Graph
from maxplanar.heuristics import grow_maximal, run_algorithm
from maxplanar.planarity import edge_addition_subgraph

GOLDEN_PATH = Path(__file__).parent / "growth_golden.json"
ALGORITHMS = ("naive", "bm+", "cactus+")
SEEDS = (0, 1)


def golden_graphs() -> dict[str, Graph]:
    graphs = {}
    for n in (60, 150):
        for d in (3, 5):
            graphs[f"regular_n{n}_d{d}"] = gen_regular(n, 2 * d, n + d)
            graphs[f"scale_free_n{n}_d{d}"] = gen_scale_free(n, d, n + d)
    graphs["disconnected"] = disjoint_union(
        gen_regular(40, 6, 1), gen_scale_free(30, 4, 2), gen_regular(12, 2, 3), isolated=3
    )
    return graphs


# n=1000, d=5, generator seed 0: the size where most growth tests reject.
SCALE_GRAPHS = {
    "regular_n1000_d5": lambda: gen_regular(1000, 10, 0),
    "scale_free_n1000_d5": lambda: gen_scale_free(1000, 5, 0),
}


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


def compute_scale_cells(names=None) -> dict[str, list[int]]:
    cells = {}
    for name, build in SCALE_GRAPHS.items():
        if names is not None and name not in names:
            continue
        g = build()
        for algo in ALGORITHMS:
            cells[f"{name}/{algo}/0"] = sorted(run_algorithm(g, algo, 0, restarts=1).kept)
    return cells


@pytest.mark.parametrize("name", list(golden_graphs()))
def test_growth_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    got = compute_cells({name})
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert len(want) == len(ALGORITHMS) * len(SEEDS) + 1
    assert got == want


@pytest.mark.parametrize("name", list(SCALE_GRAPHS))
def test_growth_golden_at_scale(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    want = {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert len(want) == len(ALGORITHMS)
    assert compute_scale_cells({name}) == want


@pytest.mark.parametrize("name", list(SCALE_GRAPHS))
def test_kept_kernels_are_fresh_ones_at_scale(name, monkeypatch):
    # After every accept, each component's kept kernel equals a fresh one.
    check = FreshKernelCheck(monkeypatch)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_scale_cells({name}) == {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert check.checks > 500


# sha256 of the comma-joined ascending kept ids, and their count.
SCALE_FREE_N3000_CACTUS_PLUS = (
    4143, "8bf8089d10175b879883228716f8027dbb06b84a76544d9f27a970754c0dea61"
)


def test_growth_golden_scale_free_n3000_cactus_plus():
    kept = sorted(run_algorithm(gen_scale_free(3000, 5, 0), "cactus+", 0).kept)
    digest = hashlib.sha256(",".join(map(str, kept)).encode()).hexdigest()
    assert (len(kept), digest) == SCALE_FREE_N3000_CACTUS_PLUS


if __name__ == "__main__":
    cells = compute_cells() | compute_scale_cells()
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                            for k, v in cells.items()) + "\n}")
