from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_bipartite, complete_graph, petersen, random_graph
from maxplanar.bench import exact_from_cactus_plus
from maxplanar.exact import exact_skewness, export_ilp
from maxplanar.generate import gen_regular
from maxplanar.graph import Graph, GraphError, spanning_forest
from maxplanar.heuristics import cactus_plus
from maxplanar.planarity import is_planar
from maxplanar.planarity.types import NonPlanarStartError
from oracles import skewness_oracle


def test_skewness_k5(k5):
    r = exact_skewness(k5, 5000)
    assert r.skewness == 1 and len(r.optimal_kept) == 9
    assert r.status == "optimal"
    assert is_planar(k5, r.optimal_kept)


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
    for k in r.constraint_pool:
        assert not is_planar(petersen_graph, k)


def test_incumbent_never_worse(petersen_graph):
    inc = cactus_plus(petersen_graph, 0).kept
    r = exact_skewness(petersen_graph, 10000, initial_incumbent=inc)
    assert len(r.optimal_kept) >= len(inc)


def test_incumbent_may_be_any_collection(k5):
    # A list used to raise a bare TypeError at `frozenset - list`.
    as_set = exact_skewness(k5, 5000, initial_incumbent=frozenset(range(1, 10)))
    assert exact_skewness(k5, 5000, initial_incumbent=list(range(1, 10))) == as_set
    assert as_set.skewness == 1 and as_set.status == "optimal"
    with pytest.raises(GraphError, match="edge id 1 repeated"):
        exact_skewness(k5, 5000, initial_incumbent=[1, 1, 2])


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
    # Euler's bound is 6 against a cactus+ skewness of 36, and the packing
    # still runs: a millisecond budget cannot finish.
    g = gen_regular(30, 6, 0)
    inc = cactus_plus(g, 0).kept
    r = exact_skewness(g, 1, initial_incumbent=inc)
    assert r.status == "timeout-incumbent"
    assert len(r.optimal_kept) >= len(inc)
    assert is_planar(g, r.optimal_kept)


def _two_k6() -> Graph:
    k6 = complete_graph(6)
    return Graph(12, k6.edges + tuple((a + 6, b + 6) for a, b in k6.edges))


# A maximal planar subgraph of K_n is a triangulation, so the cactus+ incumbent
# meets Euler's bound, m - (3n - 6), and no node is explored.  Two disjoint K6
# have 30 = 3 * 12 - 6 edges: only the per-component sum, 3 + 3, closes them.
@pytest.mark.parametrize(
    "g, skew",
    [(complete_graph(n), n * (n - 1) // 2 - (3 * n - 6)) for n in range(5, 10)] + [(_two_k6(), 6)],
    ids=["K5", "K6", "K7", "K8", "K9", "2xK6"],
)
def test_euler_bound_closes_without_search(g, skew):
    r = exact_skewness(g, 60_000, initial_incumbent=cactus_plus(g, 0).kept)
    assert (r.status, r.nodes_explored) == ("optimal", 0)
    assert r.skewness == r.lower_bound == skew


def _assert_cut_to_spanning_forest(g, nodes):
    t0 = time.monotonic()
    r = exact_skewness(g, 2000)
    elapsed = time.monotonic() - t0
    assert elapsed < 4.0
    assert r.status == "timeout-incumbent"
    assert r.nodes_explored == nodes
    assert is_planar(g, r.optimal_kept)
    # No planar node is reached before the deadline: the answer is a spanning forest.
    assert len(r.optimal_kept) == len(spanning_forest(g))
    assert r.skewness == len(g.edges) - len(r.optimal_kept)


def test_deadline_honoured_in_bound_and_extraction():
    # Euler's bound, 1606, is at least 4000 // 9, so the packing is skipped and
    # only the extraction deadline is exercised: the root node's extraction,
    # about 6 s untimed on these 4,000 edges, is cut.
    _assert_cut_to_spanning_forest(gen_regular(800, 10, 0), nodes=1)


def test_deadline_honoured_in_packing_bound():
    # Euler's bound is 6 and 1500 // 9 is 166, so the witness packing runs;
    # the deadline cuts it before any node is explored.
    _assert_cut_to_spanning_forest(gen_regular(500, 6, 0), nodes=0)


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
        pool = [sum(1 << e for e in k) for k in r.constraint_pool]
        assert len(set(pool)) == len(pool)
        assert set(pool) <= set(want["pool"])


def test_rejects_nonpositive_time_limit(k5):
    with pytest.raises(ValueError):
        exact_skewness(k5, 0)


@pytest.mark.parametrize("limit", [float("nan"), 0.0])
def test_rejects_nan_and_zero_time_limit(limit):
    # A NaN limit used to pass the check and make a NaN deadline, which no
    # `monotonic() > deadline` comparison ever exceeds: the search ran on.
    with pytest.raises(ValueError, match="time_limit_ms must be positive"):
        exact_skewness(gen_regular(30, 6, 0), limit)


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


def test_export_ilp_euler_row_k7():
    # K7's pool is empty once Euler closes it; the Euler row still cuts.
    g = complete_graph(7)
    r = exact_from_cactus_plus(g, 0, 60_000)
    assert r.constraint_pool == []
    text = export_ilp(g, r.constraint_pool)
    row = [ln for ln in text.splitlines() if ln.lstrip().startswith("e0:")]
    assert len(row) == 1 and row[0].count("x") == 21
    assert "<= 15" in text


def test_export_ilp_constructed_constraint(k33):
    pool = [k33.all_edges()]
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
