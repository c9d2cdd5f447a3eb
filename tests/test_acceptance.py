"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS line when it succeeds (run with -s to see them);
a failing assertion is the FAIL signal.  Tolerances and instance sizes are
pinned here, not configurable.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

from conftest import complete_bipartite, complete_graph, petersen, random_graph, spanning_subgraph
from maxplanar.bench import (InstanceRef, SuiteConfig, emit_records_csv, exact_from_cactus_plus,
                             run_suite)
from maxplanar.exact import exact_skewness
from maxplanar.generate import GeneratorSpec, gen_regular
from maxplanar.graph import Graph, connected_components
from maxplanar.heuristics import ALGORITHMS, cactus_plus, run_algorithm
from maxplanar.planarity import extract_kuratowski, is_planar, witness_is_valid
from maxplanar.planarize import insert_edges_fixed
from oracles import planar_oracle, skewness_oracle


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_exact_named_values():
    """skew(K5)=1, skew(K3,3)=1, skew(K6)=3, skew(Petersen)=2, each < 5 s."""
    cases = [
        ("K5", complete_graph(5), 1),
        ("K3,3", complete_bipartite(3, 3), 1),
        ("K6", complete_graph(6), 3),
        ("Petersen", petersen(), 2),
    ]
    for name, g, expected in cases:
        t0 = time.perf_counter()
        r = exact_skewness(g, 5000)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"{name} took {elapsed:.1f}s"
        assert r.status == "optimal", name
        assert r.skewness == expected, f"{name}: got {r.skewness}"
        assert is_planar(g, r.optimal_kept), name
        # independent check: removal-set enumeration up to the claimed value
        assert skewness_oracle(g, max_remove=expected) == expected, name
    _report("PASS criterion 1: exact skewness of K5/K3,3/K6/Petersen = 1/1/3/2, each < 5 s")


def test_criterion_2_oracle_equivalence_50_graphs():
    """exact_skewness == brute force on 50 random graphs, n<=10, m<=20, <5 min."""
    rng = random.Random(20240)
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(50):
        n = rng.randint(4, 10)
        mmax = min(20, n * (n - 1) // 2)
        m = rng.randint(0, mmax)
        g = random_graph(n, m, rng)
        r = exact_skewness(g, 120_000)
        assert r.status == "optimal"
        assert is_planar(g, r.optimal_kept)
        assert len(r.optimal_kept) == m - r.skewness
        try:
            oracle = skewness_oracle(g, max_remove=r.skewness)
        except AssertionError:
            mismatches += 1
            continue
        if oracle != r.skewness:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    _report(
        f"PASS criterion 2: exact matches brute-force skewness on 50 random graphs "
        f"(0 mismatches, {elapsed:.0f}s)"
    )


def test_criterion_3_planarity_soundness_10k():
    """is_planar agrees with the subdivision-search oracle on 10^4 graphs with
    n <= 8; every non-planar case yields a fully valid witness."""
    rng = random.Random(31415)
    disagreements = 0
    witnesses_checked = 0
    for trial in range(10_000):
        n = rng.randint(1, 8)
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(0, len(pairs))
        edges = rng.sample(pairs, m)
        g = Graph(n, tuple(edges))
        verdict = is_planar(g)
        if verdict != planar_oracle(n, edges):
            disagreements += 1
            continue
        if not verdict:
            w = extract_kuratowski(g)
            assert witness_is_valid(g, w), f"invalid witness on {edges}"
            witnesses_checked += 1
    assert disagreements == 0
    _report(
        f"PASS criterion 3: is_planar agrees with the exhaustive oracle on 10000 "
        f"graphs (n<=8); {witnesses_checked} witnesses passed signature, "
        f"non-planarity, and minimality checks"
    )


def _mixed_instances() -> list[Graph]:
    rng = random.Random(555)
    graphs: list[Graph] = []
    for n, d in [(30, 2), (60, 2), (120, 3), (200, 2), (200, 3)]:
        for seed in range(2):
            graphs.append(gen_regular(n, 2 * d, seed))
    for n in (40, 80, 150):
        for _ in range(3):
            graphs.append(random_graph(n, int(2.5 * n), rng))
    from maxplanar.generate import gen_scale_free

    for seed in range(3):
        graphs.append(gen_scale_free(100, 2, seed))
    return graphs


def test_criterion_4_maximality_honesty_200_runs():
    """200 maximal-algorithm runs with no addable edge; BM/C planar+spanning."""
    graphs = _mixed_instances()
    runs = 0
    seed = 0
    algos = ("naive", "bm+", "cactus+")
    while runs < 200:
        g = graphs[runs % len(graphs)]
        r = run_algorithm(g, algos[runs % 3], seed, restarts=2)
        assert r.maximal
        sub_edges = set(r.kept)
        assert is_planar(g, r.kept)
        for eid in range(len(g.edges)):
            if eid not in sub_edges:
                assert not is_planar(
                    g, r.kept | {eid}
                ), f"addable edge {eid} after {r.algorithm}"
        runs += 1
        seed += 1
    spanning_checked = 0
    for i, g in enumerate(graphs):
        for name in ("bm", "cactus"):
            r = run_algorithm(g, name, i)
            sub = spanning_subgraph(g, r.kept)
            assert is_planar(sub)
            assert connected_components(sub) == connected_components(g)
            spanning_checked += 1
    _report(
        f"PASS criterion 4: 200 maximal runs had no addable edge; "
        f"{spanning_checked} bm/cactus outputs planar and spanning"
    )


def test_criterion_5_f1_density_ranking():
    """Regular n=100, density 2/3/5, 20 seeds: mean density ranking
    cactus+ >= each of bm+, naive, bm, cactus; and naive >= bm+."""
    instances = tuple(
        InstanceRef(
            instance_id=f"regular_n100_d{d}_s{seed}",
            set_label=f"regular_d{d}",
            spec=GeneratorSpec("regular", 100, d, seed),
        )
        for d in (2, 3, 5)
        for seed in range(20)
    )
    config = SuiteConfig(
        instances=instances,
        algorithms=("naive", "bm", "bm+", "cactus", "cactus+"),
        seeds=(0,),
        restarts=10,
        workers=2,
    )
    records = run_suite(config)
    assert all(r.status == "ok" for r in records)
    algos = ("naive", "bm", "bm+", "cactus", "cactus+")
    for d in (2, 3, 5):
        per_d = {
            algo: statistics.mean(
                r.density
                for r in records
                if r.algorithm == algo and r.set_label == f"regular_d{d}"
            )
            for algo in algos
        }
        _report(
            f"  criterion 5 detail d={d}: "
            + " ".join(f"{k}={v:.3f}" for k, v in sorted(per_d.items()))
        )
    means = {}
    for algo in algos:
        vals = [r.density for r in records if r.algorithm == algo]
        assert len(vals) == 60
        means[algo] = statistics.mean(vals)
    for other in ("bm+", "naive", "bm", "cactus"):
        assert means["cactus+"] >= means[other], means
    assert means["naive"] >= means["bm+"], means
    _report(
        "PASS criterion 5: mean density over the n=100 regular grid "
        + " ".join(f"{k}={v:.3f}" for k, v in sorted(means.items()))
        + " (cactus+ best, naive >= bm+)"
    )


def test_criterion_6_f2_runtime_gap():
    """n=1000 density-5 regular: median bm and cactus runtime <= naive/10."""
    times: dict[str, list[float]] = {"naive": [], "bm": [], "cactus": []}
    for seed in range(3):
        g = gen_regular(1000, 10, seed)
        for name in times:
            times[name].append(run_algorithm(g, name, seed, restarts=1).runtime_ms)
    med = {k: statistics.median(v) for k, v in times.items()}
    assert med["bm"] <= med["naive"] / 10.0, med
    assert med["cactus"] <= med["naive"] / 10.0, med
    _report(
        f"PASS criterion 6: median runtimes on regular n=1000 d=5 (ms): "
        f"naive={med['naive']:.0f} bm={med['bm']:.0f} cactus={med['cactus']:.0f} "
        f"(both <= naive/10)"
    )


def test_criterion_7_f3_exact_times_out_with_incumbent():
    """Exact on a 30-vertex density-3 regular instance: no finish in 60 s,
    and the reported incumbent is at least as good as the cactus+ one."""
    g = gen_regular(30, 6, 0)
    incumbent = cactus_plus(g, 0).kept
    t0 = time.perf_counter()
    r = exact_skewness(g, 60_000, initial_incumbent=incumbent)
    elapsed = time.perf_counter() - t0
    assert r.status == "timeout-incumbent", f"finished in {elapsed:.0f}s?!"
    assert len(r.optimal_kept) >= len(incumbent)
    assert is_planar(g, r.optimal_kept)
    _report(
        f"PASS criterion 7: exact solver hit the 60 s limit on regular n=30 d=3 "
        f"({r.nodes_explored} nodes) and kept {len(r.optimal_kept)} >= "
        f"cactus+ {len(incumbent)} edges"
    )


def test_criterion_8_f4_crossings():
    """Planarization: mean crossings from cactus+ subgraphs <= from cactus;
    K5 pipeline -> 1 crossing, K6 pipeline -> 3 crossings exactly."""
    rng = random.Random(2718)
    cx_cactus = []
    cx_cactus_plus = []
    for trial in range(100):
        g = random_graph(50, 100, rng)
        c = run_algorithm(g, "cactus", trial)
        cp = cactus_plus(g, trial)
        cx_cactus.append(insert_edges_fixed(g, c.kept, trial).dummy_count)
        cx_cactus_plus.append(insert_edges_fixed(g, cp.kept, trial).dummy_count)
    mean_c = statistics.mean(cx_cactus)
    mean_cp = statistics.mean(cx_cactus_plus)
    assert mean_cp <= mean_c, (mean_cp, mean_c)

    k5 = complete_graph(5)
    best5 = exact_skewness(k5, 5000).optimal_kept
    # lower bound: a drawing with c crossings yields planarity after removing
    # <= c edges, so crossings >= skewness (brute-forced)
    assert skewness_oracle(k5, max_remove=1) == 1
    assert insert_edges_fixed(k5, best5, 0).dummy_count == 1

    k6 = complete_graph(6)
    best6 = exact_skewness(k6, 5000).optimal_kept
    assert skewness_oracle(k6, max_remove=3) == 3
    p6 = insert_edges_fixed(k6, best6, 0)
    assert p6.dummy_count == 3
    _report(
        f"PASS criterion 8: mean crossings cactus+={mean_cp:.2f} <= "
        f"cactus={mean_c:.2f} over 100 instances; K5 pipeline = 1, K6 pipeline = 3"
    )


def test_criterion_9_suite_determinism(tmp_path):
    """Re-running a suite with fixed seeds reproduces the CSV except runtimes."""
    instances = tuple(
        InstanceRef(
            instance_id=f"regular_n40_d2_s{seed}",
            set_label="regular",
            spec=GeneratorSpec("regular", 40, 2, seed),
        )
        for seed in range(3)
    ) + (
        InstanceRef(
            instance_id="scale_free_n40_d2_s0",
            set_label="scale_free",
            spec=GeneratorSpec("scale_free", 40, 2, 0),
        ),
    )
    config = SuiteConfig(
        instances=instances,
        algorithms=("naive", "bm", "bm+", "cactus", "cactus+", "planarize:cactus+"),
        seeds=(0, 1),
        restarts=3,
        workers=2,
    )

    def csv_without_runtime(records) -> str:
        path = tmp_path / "records.csv"
        emit_records_csv(records, path)
        lines = path.read_text().splitlines()
        out = []
        for line in lines:
            cols = line.split(",")
            del cols[8]  # runtime_ms
            out.append(",".join(cols))
        return "\n".join(out)

    first = csv_without_runtime(run_suite(config))
    second = csv_without_runtime(run_suite(config))
    assert first == second
    _report(
        "PASS criterion 9: identical suite CSV (modulo runtime column) across reruns"
    )


def test_gap_to_optimum_on_small_sparse_instances():
    """Scale-free d=2 at n=20 and 30, regular d=2 at n=12 and 16: on every
    instance exact closes in 5 s, no label keeps more than the optimum and
    cactus keeps at least 7/18 of it (the greedy triangular structure's
    guarantee, Calinescu, Fernandes, Finkler and Karloff, J. Algorithms 1998)."""
    grid = [("scale_free", 20, 12), ("scale_free", 30, 8), ("regular", 12, 8), ("regular", 16, 6)]
    ratios: dict[str, list[float]] = {algo: [] for algo in ALGORITHMS}
    for family, n, seeds in grid:
        for seed in range(seeds):
            g = GeneratorSpec(family, n, 2, seed).build()
            r = exact_from_cactus_plus(g, seed, 5000)
            if r.status != "optimal":
                continue
            opt = len(r.optimal_kept)
            for algo in ALGORITHMS:
                kept = len(run_algorithm(g, algo, seed).kept)
                name = f"{family} n={n} seed {seed} {algo}"
                assert kept <= opt, f"{name} kept {kept} > optimum {opt}"
                if algo == "cactus":
                    assert 18 * kept >= 7 * opt, f"{name} kept {kept} < 7/18 of {opt}"
                ratios[algo].append(kept / opt)
    closed = len(ratios["cactus"])
    assert closed >= 17, f"exact closed only {closed} of 34 instances"
    _report(
        f"PASS gap to optimum: mean kept/OPT on the {closed} of 34 instances exact closed: "
        + " ".join(f"{a}={statistics.mean(v):.3f}" for a, v in ratios.items())
    )
