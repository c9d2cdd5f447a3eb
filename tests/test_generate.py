from __future__ import annotations

import hashlib
import json
import statistics

import pytest

from maxplanar.generate import GeneratorError, GeneratorSpec, gen_regular, gen_scale_free
from maxplanar.graph import connected_components


def test_regular_n4_d3_is_k4():
    g = gen_regular(4, 3, 0)
    assert g.vertex_count == 4 and len(g.edges) == 6


def test_regular_degree_audit():
    g = gen_regular(100, 6, 1)
    assert len(g.edges) == 300
    deg = [0] * 100
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert all(d == 6 for d in deg)


def test_regular_two_regular_is_cycle_cover():
    g = gen_regular(6, 2, 3)
    deg = [0] * 6
    for a, b in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert all(d == 2 for d in deg)
    assert len(g.edges) == 6


def test_regular_deterministic():
    assert gen_regular(60, 4, 9).edges == gen_regular(60, 4, 9).edges
    assert gen_regular(60, 4, 9).edges != gen_regular(60, 4, 10).edges


def test_regular_graphs_are_pinned():
    # Every feasible (n, degree) with n < 40 and degree < 12, seeds 0-7: 2,432
    # graphs, of which 980 reach the feasibility scan and 886 restart a pairing.
    digest = hashlib.sha256()
    for n in range(40):
        for degree in range(max(min(n, 12), 1)):
            if n * degree % 2 == 0:
                for seed in range(8):
                    edges = gen_regular(n, degree, seed).edges
                    digest.update(json.dumps([n, degree, seed, edges]).encode())
    assert digest.hexdigest() == "821635bfb4f366d0f4f4f397c5426dc4a7dcb2c9af0735baf168f9f894081d94"


def test_regular_rejects_odd_sum():
    with pytest.raises(GeneratorError):
        gen_regular(5, 3, 0)


def test_regular_rejects_degree_too_large():
    with pytest.raises(GeneratorError):
        gen_regular(4, 4, 0)


def test_regular_grid_density_exact():
    for d in (2, 3, 5):
        g = GeneratorSpec("regular", 50, d, 7).build()
        assert len(g.edges) == d * 50


def test_scale_free_eps1_is_tree():
    g = gen_scale_free(5, 1, 0)
    assert len(g.edges) == 4
    assert len(connected_components(g)) == 1


def test_scale_free_edge_count_formula():
    # seed clique on eps+1 vertices, eps edges per newcomer
    g = gen_scale_free(100, 2, 5)
    assert len(g.edges) == 3 + 2 * 97  # 197
    assert len(connected_components(g)) == 1


def test_scale_free_deterministic():
    assert gen_scale_free(80, 3, 4).edges == gen_scale_free(80, 3, 4).edges


def test_scale_free_rejects_bad_params():
    with pytest.raises(GeneratorError):
        gen_scale_free(3, 3, 0)
    with pytest.raises(GeneratorError):
        gen_scale_free(10, 0, 0)


def test_scale_free_heavier_tail_than_regular():
    ratios = []
    for seed in range(20):
        sf = gen_scale_free(1000, 2, seed)
        rg = gen_regular(1000, 4, seed)
        def max_deg(g):
            deg = [0] * g.vertex_count
            for a, b in g.edges:
                deg[a] += 1
                deg[b] += 1
            return max(deg)
        ratios.append(max_deg(sf) / max_deg(rg))
    assert statistics.mean(ratios) > 3.0


def test_spec_rejects_unknown_family():
    with pytest.raises(GeneratorError, match="unknown family 'foo'"):
        GeneratorSpec("foo", 10, 2, 0)


def test_spec_rejects_negative_seed():
    # Random(-1) draws what Random(1) draws: s-1 would name a copy of s1.
    with pytest.raises(GeneratorError, match="seed must be >= 0"):
        GeneratorSpec("regular", 10, 2, -1)


@pytest.mark.parametrize("n, density, seed, field", [
    (10, 2, True, "seed"), (10, 2, 1.5, "seed"), (10, True, 0, "density"),
    (10, 2.0, 0, "density"), (10.0, 2, 0, "n"), (False, 2, 0, "n"),
])
def test_spec_rejects_non_int_settings(n, density, seed, field):
    # Unchecked, True builds seed 1's graph under the label "_sTrue", and
    # 10.0 raises a bare TypeError from the generator.
    for family in ("regular", "scale_free"):
        with pytest.raises(GeneratorError, match=f"{field}: .* is not an int"):
            GeneratorSpec(family, n, density, seed)


def test_spec_labels():
    spec = GeneratorSpec("regular", 100, 3, 2)
    assert spec.label() == "regular_n100_d3_s2"
    assert spec.build().vertex_count == 100


def test_scale_free_grid_edge_bound():
    # |E| deviates from d*|V| by the seed-clique deficit d*(d+1)/2
    for d in (2, 3, 5):
        g = GeneratorSpec("scale_free", 100, d, 1).build()
        assert abs(len(g.edges) - d * 100) <= d * (d + 1) // 2
