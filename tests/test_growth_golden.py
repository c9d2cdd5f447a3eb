"""Golden kept sets of the growth postprocessor.

`grow_maximal` decides every candidate edge by a planarity test, so its kept
set depends only on the verdicts and on the seed-shuffled order.  These
values pin that output for the heuristics that grow (`naive` with two
restarts, `bm+`, `cactus+`) and for `grow_maximal` from a random planar
start, and, with one naive restart, on regular and scale-free n=1000, d=5,
where most growth tests reject; so that any change to how a growth test is
computed must give the same verdicts.  Scale-free n=3000, d=5 `cactus+`, where
an accept touches the largest pieces of the kept kernel, is pinned by a
sha256 of its kept set.  `ENGINE_WORK` pins, on the `disconnected` graph, at
n=1000 and on two clusters joined by one edge, the engine runs per cell and the
summed size of the graphs they run on, so that a change to how growth keeps its
kernel must not make the engine do more.  networkx checks the n=1000 kept sets
on its own: each is planar, and adding any of a sample of the edges it left
out makes it non-planar.

Regenerate the JSON only when the seeded order itself is meant to change; the
command prints the JSON on stdout and the `ENGINE_WORK` table on stderr:

    PYTHONPATH=src python tests/test_growth_golden.py > tests/growth_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from conftest import disjoint_union
from oracles import FreshKernelCheck, watch_growth
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


def two_clusters() -> Graph:
    """Two regular n=100, d=5 clusters joined by the edge 0-100: one component
    of g in which naive growth keeps two components with kernels for a while,
    and each engine run meanwhile covers both."""
    g = disjoint_union(gen_regular(100, 10, 1), gen_regular(100, 10, 2))
    return Graph(g.vertex_count, (*g.edges, (0, 100)))


# The graphs whose engine work is pinned at seed 0 with one naive restart.
WORK_GRAPHS = {**SCALE_GRAPHS, "two_clusters": two_clusters}


def random_planar_start(g: Graph, seed: int) -> frozenset[int]:
    """A random half of a skip-mode planar subgraph: planar, tree- and
    path-rich, so growth from it starts on components full of low degrees."""
    rng = random.Random(seed)
    return frozenset(e for e in sorted(edge_addition_subgraph(g, seed)) if rng.random() < 0.5)


def golden_runs(names=None):
    """(cell key, run) per golden cell of the graphs in `names`, where run()
    returns the cell's kept set; the graphs are built as the runs are drawn."""
    for name, g in golden_graphs().items():
        if names is not None and name not in names:
            continue
        for algo in ALGORITHMS:
            for seed in SEEDS:
                yield f"{name}/{algo}/{seed}", lambda g=g, a=algo, s=seed: run_algorithm(g, a, s, restarts=2).kept
        yield f"{name}/grow", lambda g=g: grow_maximal(g, random_planar_start(g, 5), 3)


def scale_runs(names=None, graphs=SCALE_GRAPHS):
    """(cell key, run) per golden cell of the `graphs` in `names`."""
    for name, build in graphs.items():
        if names is not None and name not in names:
            continue
        g = build()
        for algo in ALGORITHMS:
            yield f"{name}/{algo}/0", lambda g=g, a=algo: run_algorithm(g, a, 0, restarts=1).kept


def compute_cells(names=None) -> dict[str, list[int]]:
    return {key: sorted(run()) for key, run in golden_runs(names)}


def compute_scale_cells(names=None) -> dict[str, list[int]]:
    return {key: sorted(run()) for key, run in scale_runs(names)}


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
def test_growth_golden_at_scale_agrees_with_networkx(name):
    # The goldens above are the code's own output; networkx shares no code
    # with it.  Each kept set must be planar, and adding any of a seeded
    # sample of 100 edges it left out must make it non-planar.
    nx = pytest.importorskip("networkx")
    golden = json.loads(GOLDEN_PATH.read_text())
    g = SCALE_GRAPHS[name]()
    for algo in ALGORITHMS:
        kept = golden[f"{name}/{algo}/0"]
        h = nx.Graph(g.edges[e] for e in kept)
        assert nx.check_planarity(h)[0]
        rejected = sorted(set(range(len(g.edges))) - set(kept))
        for eid in random.Random(0).sample(rejected, 100):
            h.add_edge(*g.edges[eid])
            assert not nx.check_planarity(h)[0], (algo, eid)
            h.remove_edge(*g.edges[eid])


@pytest.mark.parametrize("name", list(SCALE_GRAPHS))
def test_kept_kernels_are_fresh_ones_at_scale(name, monkeypatch):
    # After every accept, the kept kernel equals a fresh one.
    check = FreshKernelCheck(monkeypatch)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert compute_scale_cells({name}) == {k: v for k, v in golden.items() if k.split("/")[0] == name}
    assert check.checks > 500


# Per cell: the engine runs growth makes, and the summed n + m of the
# plus-edge graphs they run on.  Kept sets alone would not show a change that
# gives the same verdicts on larger graphs, or more of them.
ENGINE_WORK = {
    "disconnected/naive/0": (184, 11644),
    "disconnected/naive/1": (182, 10073),
    "disconnected/bm+/0": (90, 6563),
    "disconnected/bm+/1": (91, 6673),
    "disconnected/cactus+/0": (84, 5357),
    "disconnected/cactus+/1": (89, 6458),
    "disconnected/grow": (98, 5927),
    "regular_n1000_d5/naive/0": (2465, 1196895),
    "regular_n1000_d5/bm+/0": (2564, 1505445),
    "regular_n1000_d5/cactus+/0": (1366, 624790),
    "scale_free_n1000_d5/naive/0": (1841, 725299),
    "scale_free_n1000_d5/bm+/0": (2642, 1407269),
    "scale_free_n1000_d5/cactus+/0": (1121, 547876),
    "two_clusters/naive/0": (439, 108763),
    "two_clusters/bm+/0": (523, 169238),
    "two_clusters/cactus+/0": (474, 181818),
}


def engine_work(names, monkeypatch) -> dict[str, tuple[int, int]]:
    """The `ENGINE_WORK` cells of the graphs in `names`, as measured now."""
    _, _, sizes = watch_growth(monkeypatch)
    got = {}
    for key, run in [*golden_runs(names), *scale_runs(names, WORK_GRAPHS)]:
        sizes.clear()
        run()
        got[key] = len(sizes), sum(sizes)
    return got


@pytest.mark.parametrize("name", ["disconnected", *WORK_GRAPHS])
def test_growth_engine_work(name, monkeypatch):
    got = engine_work({name}, monkeypatch)
    assert got == {k: v for k, v in ENGINE_WORK.items() if k.split("/")[0] == name}


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
    with pytest.MonkeyPatch.context() as mp:
        work = engine_work(["disconnected", *WORK_GRAPHS], mp)
    print("ENGINE_WORK = {\n" + "".join(f"    {json.dumps(k)}: {v},\n" for k, v in work.items()) + "}",
          file=sys.stderr)
