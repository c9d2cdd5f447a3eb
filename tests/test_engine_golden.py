"""Golden output of the edge-addition engine in both of its modes.

`edge_addition_run` decides planarity (strict mode) and picks the edges a
planar spanning subgraph leaves out (skip mode); every label but `cactus`,
exact's search and the planarity API rest on it.  One sha256 pins, on a
seeded corpus, the verdict of every strict run and the skipped ids of every
skip run, each with the default root order and with a seeded shuffled one,
so that a change to how the engine walks, merges or stops must keep every
result.  The corpus is 6,000 random graphs with n from 3 to 26 and m from
n - 1 to 3n - 5 (the top of that range fails the Euler bound at once), and
regular and scale-free graphs at n = 100, 300 and 1,000 with d = 2, 3 and 5.
Print the digest, to update `DIGEST` only when the engine's output is meant
to change, with:

    PYTHONPATH=src python tests/test_engine_golden.py
"""

from __future__ import annotations

import hashlib
import random

from conftest import random_graph
from maxplanar.generate import gen_regular, gen_scale_free
from maxplanar.graph import Graph
from maxplanar.planarity._engine import edge_addition_run

DIGEST = "d54f1eb9dec4c17b1218a0e09c60bc63e8808c0f77781a0f58b08aa235cb5d73"


def corpus() -> list[Graph]:
    rng = random.Random(31)
    graphs = []
    for n in range(3, 27):
        for _ in range(250):
            graphs.append(random_graph(n, rng.randint(n - 1, 3 * n - 5), rng))
    for n in (100, 300, 1000):
        for d in (2, 3, 5):
            graphs.append(gen_regular(n, d, n + d))
            graphs.append(gen_scale_free(n, d, n + d))
    return graphs


def digest() -> str:
    h = hashlib.sha256()
    rng = random.Random(32)
    for g in corpus():
        n = g.vertex_count
        shuffled = list(range(n))
        rng.shuffle(shuffled)
        for root_order in (None, shuffled):
            for skip in (False, True):
                planar, skipped = edge_addition_run(
                    n, g.edges, root_order=root_order, skip_unembeddable=skip
                )
                h.update(f"{planar}:{','.join(map(str, skipped))};".encode())
    return h.hexdigest()


def test_engine_golden():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
