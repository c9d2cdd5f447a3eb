"""Instance generators: random regular graphs and preferential attachment.

Density d regular graphs have degree 2d so that |E| = d * |V| exactly.
Both generators are deterministic per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph


class GeneratorError(ValueError):
    """Infeasible generator parameters."""


@dataclass(frozen=True)
class GeneratorSpec:
    family: str  # "regular" or "scale_free"
    n: int
    density: int  # target |E| / |V|
    seed: int

    def __post_init__(self) -> None:
        if self.family not in ("regular", "scale_free"):
            raise GeneratorError(f"unknown family {self.family!r}")
        for name in ("n", "density", "seed"):  # True would build 1 under "_sTrue"
            value = getattr(self, name)
            if type(value) is not int:
                raise GeneratorError(f"{name}: {value!r} is not an int")
        if self.seed < 0:  # Random(-s) draws what Random(s) draws
            raise GeneratorError(f"seed must be >= 0, got {self.seed}")

    def build(self) -> Graph:
        if self.family == "regular":
            return gen_regular(self.n, 2 * self.density, self.seed)
        return gen_scale_free(self.n, self.density, self.seed)

    def label(self) -> str:
        return f"{self.family}_n{self.n}_d{self.density}_s{self.seed}"


def gen_regular(n: int, degree: int, seed: int) -> Graph:
    """Random `degree`-regular simple graph on n vertices (pairing model).

    Stubs are paired one at a time, each time drawing a uniformly random
    partner among the stubs that do not create a loop or parallel edge; if
    the process gets stuck the whole pairing restarts from scratch.  Retries
    are rare for degree << n, and the restart keeps the sampling unbiased
    enough for benchmarking purposes.
    """
    if degree < 0 or n < 0:
        raise GeneratorError("n and degree must be nonnegative")
    if degree >= n and not (n == 0 and degree == 0):
        raise GeneratorError(f"degree {degree} must be < n = {n}")
    if (n * degree) % 2 != 0:
        raise GeneratorError(f"n * degree must be even (n={n}, degree={degree})")
    rng = random.Random(seed)
    if degree == 0:
        return Graph(n, ())

    while True:  # full restart on a stuck pairing
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        adj: list[set[int]] = [set() for _ in range(n)]
        edges: list[tuple[int, int]] = []
        stuck = False
        while stubs:
            a = stubs.pop()
            # draw partners until one is suitable; bail out if none can be
            pick = None
            for _ in range(12):
                i = rng.randrange(len(stubs))
                b = stubs[i]
                if b != a and b not in adj[a]:
                    pick = i
                    break
            if pick is None:
                if not any(b != a and b not in adj[a] for b in stubs):
                    stuck = True
                    break
                while True:
                    i = rng.randrange(len(stubs))
                    b = stubs[i]
                    if b != a and b not in adj[a]:
                        pick = i
                        break
            b = stubs[pick]
            stubs[pick] = stubs[-1]
            stubs.pop()
            adj[a].add(b)
            adj[b].add(a)
            edges.append((a, b) if a < b else (b, a))
        if not stuck:
            edges.sort()
            return Graph(n, tuple(edges))


def gen_scale_free(n: int, edges_per_step: int, seed: int) -> Graph:
    """Preferential-attachment graph: seed clique, then degree-biased joins.

    The seed graph is a clique on edges_per_step + 1 vertices (an edge for
    edges_per_step = 1, so that growth yields a tree); every later vertex
    attaches to edges_per_step distinct existing vertices drawn with
    probability proportional to degree.
    """
    if edges_per_step < 1:
        raise GeneratorError("edges_per_step must be >= 1")
    if n <= edges_per_step:
        raise GeneratorError(f"need n > edges_per_step (n={n}, eps={edges_per_step})")
    rng = random.Random(seed)
    clique = edges_per_step + 1
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []  # one entry per endpoint: sampling weight = degree
    for a in range(clique):
        for b in range(a + 1, clique):
            edges.append((a, b))
            repeated.append(a)
            repeated.append(b)
    for v in range(clique, n):
        targets: set[int] = set()
        while len(targets) < edges_per_step:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in sorted(targets):
            edges.append((t, v))
            repeated.append(t)
            repeated.append(v)
    return Graph(n, tuple(edges))
