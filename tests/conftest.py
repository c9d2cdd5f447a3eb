from __future__ import annotations

import itertools
import os
import random
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from maxplanar.graph import Graph


def leftover_child() -> str | None:
    """A child process of this one, running or not yet reaped; None when there is none.

    An exited child is reaped by the look.
    """
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    return "a running child" if pid == 0 else f"the unreaped child {pid}"


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail a test that leaves any child process behind, then kill and reap them all."""
    yield
    left = leftover_child()
    if left is None:
        return
    for path in Path("/proc/self/task").glob("*/children"):  # Linux lists children here
        for pid in map(int, path.read_text().split()):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    pytest.fail(f"the test left {left} behind")


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def disjoint_union(*parts: Graph, isolated: int = 0) -> Graph:
    """The parts side by side, relabelled in order, then `isolated` extra vertices."""
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in parts:
        edges.extend((a + offset, b + offset) for a, b in g.edges)
        offset += g.vertex_count
    return Graph(offset + isolated, tuple(edges))


def spanning_subgraph(g: Graph, ids) -> Graph:
    """g's vertices with only the edges `ids`, renumbered in id order."""
    return Graph(g.vertex_count, tuple(g.edges[e] for e in sorted(ids)))


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, tuple(rng.sample(pairs, min(m, len(pairs)))))


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def k6() -> Graph:
    return complete_graph(6)


@pytest.fixture
def k33() -> Graph:
    return complete_bipartite(3, 3)


@pytest.fixture
def petersen_graph() -> Graph:
    return petersen()
