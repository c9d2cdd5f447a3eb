from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_bipartite, complete_graph, petersen, random_graph
from maxplanar.exact import KuratowskiConstraint, exact_skewness, export_ilp
from maxplanar.generate import gen_regular
from maxplanar.graph import spanning_forest, subgraph
from maxplanar.heuristics import cactus_plus
from maxplanar.planarity import is_planar
from maxplanar.planarity.types import NonPlanarStartError
from oracles import skewness_oracle


def test_skewness_k5(k5):
    r = exact_skewness(k5, 5000)
    assert r.skewness == 1 and len(r.optimal_kept) == 9
    assert r.status == "optimal"
    assert is_planar(subgraph(k5, r.optimal_kept))


def test_skewness_k33(k33):
    r = exact_skewness(k33, 5000)
    assert r.skewness == 1 and len(r.optimal_kept) == 8


def test_skewness_k6(k6):
    r = exact_skewness(k6, 5000)
    assert r.skewness == 3 and len(r.optimal_kept) == 12


def test_skewness_petersen(petersen_graph):
    r = exact_skewness(petersen_graph, 10000)
    assert r.skewness == 2
    assert r.status == "optimal"


def test_matches_bruteforce_oracle_batch():
    rng = random.Random(2024)
    for trial in range(12):
        n = rng.randint(5, 10)
        m = rng.randint(8, 20)
        g = random_graph(n, m, rng)
        r = exact_skewness(g, 30_000)
        assert r.status == "optimal"
        assert r.skewness == skewness_oracle(g, max_remove=r.skewness + 1)


def test_constraint_pool_valid(petersen_graph):
    r = exact_skewness(petersen_graph, 10000)
    ones = [1.0] * len(petersen_graph.edges)
    for c in r.constraint_pool:
        assert c.rhs == len(c.edges) - 1
        assert c.violation(ones) > 0
        assert not is_planar(subgraph(petersen_graph, c.edges))


def test_incumbent_never_worse(petersen_graph):
    inc = cactus_plus(petersen_graph, 0).kept
    r = exact_skewness(petersen_graph, 10000, initial_incumbent=inc)
    assert len(r.optimal_kept) >= len(inc)


def test_incumbent_rejected_if_nonplanar(k5):
    with pytest.raises(NonPlanarStartError):
        exact_skewness(k5, 1000, initial_incumbent=k5.all_edges())


def test_monotone_pruning():
    rng = random.Random(77)
    g = random_graph(9, 18, rng)
    inc = cactus_plus(g, 0).kept
    with_inc = exact_skewness(g, 30_000, initial_incumbent=inc)
    without = exact_skewness(g, 30_000)
    assert with_inc.nodes_explored <= without.nodes_explored
    assert with_inc.skewness == without.skewness


def test_timeout_yields_incumbent():
    # dense enough that a millisecond budget cannot finish
    g = complete_graph(9)
    inc = cactus_plus(g, 0).kept
    r = exact_skewness(g, 1, initial_incumbent=inc)
    assert r.status == "timeout-incumbent"
    assert len(r.optimal_kept) >= len(inc)
    assert is_planar(subgraph(g, r.optimal_kept))


def test_deadline_honoured_in_bound_and_extraction():
    # Untimed, the witness-packing bound alone takes about 50 s on these 2,500 edges.
    g = gen_regular(500, 10, 0)
    t0 = time.monotonic()
    r = exact_skewness(g, 2000)
    elapsed = time.monotonic() - t0
    assert elapsed < 4.0
    assert r.status == "timeout-incumbent"
    assert is_planar(subgraph(g, r.optimal_kept))
    # No node is reached before the deadline: the answer is a spanning forest.
    assert len(r.optimal_kept) == len(spanning_forest(g))
    assert r.skewness == len(g.edges) - len(r.optimal_kept)


def _golden_graphs():
    graphs = {
        "K5": complete_graph(5),
        "K3_3": complete_bipartite(3, 3),
        "K6": complete_graph(6),
        "Petersen": petersen(),
        "K7": complete_graph(7),
    }
    rng = random.Random(7)
    for i in range(10):
        n = rng.randint(7, 10)
        graphs[f"random{i}"] = random_graph(n, rng.randint(15, 20), rng)
    return graphs


# Per "<graph>/<incumbent>" cell: the sorted kept set, skewness, status and
# node count, and the constraint pool (edge-id bitmasks) of the solver that
# extracted a witness at every non-planar node.
EXACT_GOLDEN = json.loads((Path(__file__).parent / "exact_golden.json").read_text())


@pytest.mark.parametrize("name", list(_golden_graphs()))
def test_exact_golden(name):
    g = _golden_graphs()[name]
    for incumbent in ("none", "cactus+"):
        want = EXACT_GOLDEN[f"{name}/{incumbent}"]
        start = None if incumbent == "none" else cactus_plus(g, 0).kept
        r = exact_skewness(g, 60_000, initial_incumbent=start)
        assert sorted(r.optimal_kept) == want["kept"]
        assert (r.skewness, r.status, r.nodes_explored) == (
            want["skewness"], want["status"], want["nodes"]
        )
        # Nodes that cannot beat the incumbent no longer extract a witness,
        # so the pool may only lose constraints.
        pool = [sum(1 << e for e in c.edges) for c in r.constraint_pool]
        assert len(set(pool)) == len(pool)
        assert set(pool) <= set(want["pool"])


def test_rejects_nonpositive_time_limit(k5):
    with pytest.raises(ValueError):
        exact_skewness(k5, 0)


def test_export_ilp_k5(k5):
    r = exact_skewness(k5, 5000)
    text = export_ilp(k5, r.constraint_pool)
    assert text.startswith("Maximize")
    assert "x0" in text and "x9" in text
    assert "<= 9" in text
    assert text.count("Binary") == 1
    assert text == export_ilp(k5, r.constraint_pool)  # byte-deterministic


def test_export_ilp_empty_pool(k33):
    text = export_ilp(k33, [])
    assert "Subject To" not in text
    assert "Maximize" in text and "Binary" in text
    assert text.rstrip().endswith("End")


def test_export_ilp_constructed_constraint(k33):
    pool = [KuratowskiConstraint(edges=k33.all_edges(), rhs=8)]
    text = export_ilp(k33, pool)
    row = [ln for ln in text.splitlines() if ln.lstrip().startswith("k0:")]
    assert len(row) == 1
    assert row[0].count("x") == 9
    assert row[0].endswith("<= 8")


@given(st.integers(0, 2**30))
@settings(max_examples=10, deadline=None)
def test_exact_matches_oracle_property(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(4, 8), rng.randint(0, 14), rng)
    r = exact_skewness(g, 30_000)
    assert r.status == "optimal"
    assert r.skewness == skewness_oracle(g, max_remove=r.skewness + 1)
