from __future__ import annotations

import hashlib
import random

import pytest

from conftest import random_graph
from maxplanar.exact import exact_skewness
from maxplanar.generate import GeneratorSpec
from maxplanar.graph import Graph, GraphError
from maxplanar.heuristics import cactus_plus, run_algorithm
from maxplanar.planarity import is_planar, validate_embedding
from maxplanar.planarity.types import NonPlanarStartError
from maxplanar.planarize import insert_edges_fixed


def normalized(g: Graph) -> tuple:
    return tuple(sorted((min(a, b), max(a, b)) for a, b in g.edges))


def test_identity_when_subgraph_is_everything():
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    p = insert_edges_fixed(g, g.all_edges(), 0)
    assert p.dummy_count == 0
    assert p.dummy_count == 0
    assert p.host.edges == g.edges
    validate_embedding(p.host, p.embedding)


def test_k5_single_crossing(k5):
    best = exact_skewness(k5, 5000).optimal_kept
    for seed in range(5):
        p = insert_edges_fixed(k5, best, seed)
        assert p.dummy_count == 1
        assert p.host.vertex_count == 6  # one dummy
        validate_embedding(p.host, p.embedding)
        assert normalized(p.recover_original()) == normalized(k5)


def test_k6_three_crossings(k6):
    best = exact_skewness(k6, 5000).optimal_kept
    for seed in range(5):
        p = insert_edges_fixed(k6, best, seed)
        assert p.dummy_count == 3
        validate_embedding(p.host, p.embedding)
        assert normalized(p.recover_original()) == normalized(k6)


def test_rejects_nonplanar_subgraph(k5):
    with pytest.raises(NonPlanarStartError):
        insert_edges_fixed(k5, k5.all_edges(), 0)


def test_dummy_degrees_and_origins(k6):
    best = exact_skewness(k6, 5000).optimal_kept
    p = insert_edges_fixed(k6, best, 1)
    n0 = p.original_vertex_count
    deg = [0] * p.host.vertex_count
    origins_at: dict[int, set[int]] = {}
    for hid, (a, b) in enumerate(p.host.edges):
        deg[a] += 1
        deg[b] += 1
        for v in (a, b):
            if v >= n0:
                origins_at.setdefault(v, set()).add(p.origin_map[hid])
    for d in range(n0, p.host.vertex_count):
        assert deg[d] == 4
        assert len(origins_at[d]) == 2  # each dummy lies on exactly two edges


def test_euler_holds_after_each_insertion():
    rng = random.Random(3)
    g = random_graph(12, 26, rng)
    kept = sorted(run_algorithm(g, "cactus", 0).kept)
    deferred = [e for e in range(len(g.edges)) if e not in set(kept)]
    # insert one more edge each round; the embedding must stay valid
    for upto in range(len(deferred) + 1):
        sub = frozenset(kept) | frozenset(deferred[upto:])
        if not is_planar(g, sub):
            continue
        p = insert_edges_fixed(g, sub, 0, shuffle=False)
        validate_embedding(p.host, p.embedding)


def test_round_trip_random_instances():
    rng = random.Random(8)
    for trial in range(15):
        n = rng.randint(6, 30)
        g = random_graph(n, rng.randint(n, 3 * n), rng)
        p = insert_edges_fixed(g, cactus_plus(g, trial).kept, trial)
        validate_embedding(p.host, p.embedding)
        assert normalized(p.recover_original()) == normalized(g)
        assert is_planar(p.host)


def test_accepts_any_edge_id_collection(k5):
    kept = cactus_plus(k5, 0).kept
    want = insert_edges_fixed(k5, kept, 0)
    assert want.dummy_count == 1
    for ids in (sorted(kept), set(kept), iter(sorted(kept, reverse=True))):
        p = insert_edges_fixed(k5, ids, 0)
        assert (p.host, p.embedding, p.origin_map) == (want.host, want.embedding, want.origin_map)


def test_refuses_repeated_edge_ids(k5):
    # Repeating id 0 used to be deduplicated away: K5 was planarized with
    # one dummy from the nine ids 0..8.
    with pytest.raises(GraphError, match="edge id 0 repeated"):
        insert_edges_fixed(k5, [0, 0, 1, 2, 3, 4, 5, 6, 7, 8], 0)


def test_refuses_negative_seeds(k5):
    # Seed -4 used to return seed 4's planarization.
    kept = cactus_plus(k5, 0).kept
    with pytest.raises(ValueError, match="seed must be >= 0, got -4"):
        insert_edges_fixed(k5, kept, -4)
    assert insert_edges_fixed(k5, kept, 0).dummy_count == 1


def test_disconnected_components_insert_without_crossings():
    # two triangles plus one edge between them, triangles kept
    edges = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3))
    g = Graph(6, edges)
    kept = frozenset(range(6))
    p = insert_edges_fixed(g, kept, 0)
    assert p.dummy_count == 0
    validate_embedding(p.host, p.embedding)
    assert normalized(p.recover_original()) == normalized(g)


def test_id_order_is_reproducible():
    rng = random.Random(12)
    g = random_graph(14, 30, rng)
    kept = run_algorithm(g, "cactus", 0).kept
    a = insert_edges_fixed(g, kept, 0, shuffle=False)
    b = insert_edges_fixed(g, kept, 99, shuffle=False)
    assert a.host.edges == b.host.edges
    assert a.dummy_count == b.dummy_count


def output_digest(p) -> str:
    blob = repr((p.host.edges, p.embedding.rotations, p.origin_map)).encode()
    return hashlib.sha256(blob).hexdigest()


# Pinned outputs of the insertion that re-traced every face per routed edge;
# any change to routing, tie-breaking or rotation edits shows here.
GOLDEN = (
    ("regular", 50, 3, "bm", 654, "d9eacc45b39a3c6d4cf738070e16272cf70a8c68ac1dab763e94ab970af39ab7"),
    ("regular", 50, 3, "cactus", 649, "d6ac8056e6da58f62b42eeacce0777d982125e8bbf504d595ed15134dca58ef2"),
    ("regular", 50, 3, "cactus+", 378, "3eb7940db4311d63d920b68d708940df4ad37d3bdc679309df76e949e81c7292"),
    ("scale_free", 50, 3, "bm", 534, "e4844fd6c0cd4e5b9a0b225c8ed37482f6fc120429f1f3bfbcf5b1187b5b60b9"),
    ("scale_free", 50, 3, "cactus", 554, "1019ec71f9aba2007ca6c0628565549f61eb0e3fe83af956e527e1976382d242"),
    ("scale_free", 50, 3, "cactus+", 429, "b0167e6050b4630b222bb2b928fd8ebff6f77fffa0a596256516b7b25b880171"),
    ("regular", 100, 2, "bm", 512, "92d55a4f145dd7350462197343585d4020d07ad9f69bf9610d59e20e4987b2b1"),
    ("regular", 100, 2, "cactus", 628, "6de3f35590f8fcf56661f7db2feb92cdfb4590cb0c6eb72d65c173b9c7107f36"),
    ("regular", 100, 2, "cactus+", 456, "0c3e0291a296913f9fa324c18275677387039e345d5580a43ba42c66131c0d22"),
)


@pytest.mark.parametrize("family,n,density,algo,dummies,digest", GOLDEN)
def test_golden_outputs(family, n, density, algo, dummies, digest):
    g = GeneratorSpec(family, n, density, 0).build()
    p = insert_edges_fixed(g, run_algorithm(g, algo, 0).kept, 0)
    assert p.dummy_count == dummies
    assert output_digest(p) == digest


# The GOLDEN cells in edge-id order (shuffle=False, seed 0) and with
# algorithm and insertion seed 1.
GOLDEN_VARIANTS = (
    ("regular", 50, 3, "bm", 627, "2382509d2d190b8f0ae1d1ff7f3b84e937a9850530f3b0ac1adb2fa03c9ca3b2", 455, "b44f9ad6a5227f011ca5bafdd43c6cace7dc9405e2433f3be1896d3dbf8a8a16"),
    ("regular", 50, 3, "cactus", 736, "c8a52fcb6bcf17b2a69e72154e5b1ca4cc262eccd9247eacf4a5d13896ff9331", 660, "67d4ea52b6f5a9a9ebad2fe7abb1404a91848ea0733ea99a3207080dd9a15075"),
    ("regular", 50, 3, "cactus+", 390, "b076a9d0cf5466356e1f72cee9176be029f3fa1d7461b74e7aceb044a101257b", 467, "34d5c35e719d191ecc925b7a8c4bd59115a65fa25269f1a28c6042fb841d5561"),
    ("scale_free", 50, 3, "bm", 500, "f210a4340ec84f23bc7f154cdd51fe0ef794b62ae3089e149b1156da7f494d80", 506, "3934dae3f4a44fa1a74adae5e949e4d559dba024e3d2b132126ca94e60fa2634"),
    ("scale_free", 50, 3, "cactus", 551, "9b7627149f406d3afb5410190f1fc96cecf12fda9acb35faca69b629eba55622", 648, "87e44adb1f4d8c95d94d5905eb1c54f62422178fd5e216c6c2f2b23ec22399d1"),
    ("scale_free", 50, 3, "cactus+", 428, "c5de5c6883b8bef960a244181bc0d3d68c8be7d378618556ae2000529478080c", 399, "613e11798c5f995dd4d7468a3ad303ff28f8513ec1308988c89a8e28f46707dc"),
    ("regular", 100, 2, "bm", 602, "c5ad6d3680d357c00172b74f7a226b4974252d37e39e89c582095de4f4f1fa5a", 457, "2e9d96c25facad6dfd208aed3625585fc16c303cbfbebd360d72e924be15546e"),
    ("regular", 100, 2, "cactus", 708, "fd28913fada0cf6a4f272a6e1886d1db79c951092701624b36e47b0222738457", 607, "4d4c1e36d443e1f4929cb5f822f97235a7d315f53af17ff97ca1c290404ad6ae"),
    ("regular", 100, 2, "cactus+", 403, "f5a06a5856ed4cac3989f59c3413fa2b2254995366fb367010db8575dbab3faf", 448, "374d727fd30b34caf4d74478e8677495e8bd4983a9ed60dc86dea402d4f52d80"),
)


@pytest.mark.parametrize("family,n,density,algo,dummies,digest,dummies1,digest1", GOLDEN_VARIANTS)
def test_golden_outputs_unshuffled_and_seed_1(family, n, density, algo, dummies, digest, dummies1, digest1):
    g = GeneratorSpec(family, n, density, 0).build()
    p = insert_edges_fixed(g, run_algorithm(g, algo, 0).kept, 0, shuffle=False)
    assert (p.dummy_count, output_digest(p)) == (dummies, digest)
    p = insert_edges_fixed(g, run_algorithm(g, algo, 1).kept, 1)
    assert (p.dummy_count, output_digest(p)) == (dummies1, digest1)


# Larger cells: thousands of crossings, long routes through many faces.
GOLDEN_LARGE = (
    ("scale_free", 300, 2, "bm", 4778, "8b9fbc70de2cf3953a42be65dc1a5c796a4234daf58002e4f2a74e67515238f6"),
    ("regular", 120, 3, "cactus+", 2505, "4b16d02214198e7a05a0e926dcbb23a4845af2d7ba5bef90aed15a3619389740"),
)


@pytest.mark.parametrize("family,n,density,algo,dummies,digest", GOLDEN_LARGE)
def test_golden_outputs_large(family, n, density, algo, dummies, digest):
    g = GeneratorSpec(family, n, density, 0).build()
    p = insert_edges_fixed(g, run_algorithm(g, algo, 0).kept, 0)
    assert p.dummy_count == dummies
    assert output_digest(p) == digest


def test_golden_output_disconnected():
    # Two components plus isolated vertices; dropping the kept edges at three
    # vertices makes some deferred edges join components before others route.
    rng = random.Random(5)
    a = random_graph(12, 30, rng)
    b = random_graph(10, 22, rng)
    g = Graph(25, a.edges + tuple((x + 12, y + 12) for x, y in b.edges))
    cut = {0, 5, 14}
    kept = frozenset(e for e in cactus_plus(g, 0).kept if not cut & set(g.edges[e]))
    p = insert_edges_fixed(g, kept, 0, shuffle=False)
    assert p.dummy_count == 30
    assert output_digest(p) == "31b74fc043a79aaef6e766f3dfee3f7bff1f21f5314002ae876035d18f89d05f"
