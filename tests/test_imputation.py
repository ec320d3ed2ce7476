from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lsimpute import (
    AnchorMap,
    EmbeddingMatrix,
    LsiConfig,
    WeightMatrix,
    impute,
    knn_mst,
    lsi_pipeline,
    solve_weights,
)
from lsimpute import imputation
from lsimpute.evaluation import cosine_similarity

from conftest import make_shared_latent_benchmark, random_embedding
from oracles import kruskal_mst, transitive_closure_components


def _emb(vectors) -> EmbeddingMatrix:
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingMatrix([f"n{i}" for i in range(len(vectors))], vectors)


# ---------------------------------------------------------------------------
# knn_mst

def test_collinear_points_k1():
    domain = _emb([[0.0], [1.0], [2.0], [10.0]])
    g = knn_mst(domain, k=1)
    assert g.edges() == {(0, 1), (1, 2), (2, 3)}
    assert g.mst_edges == {(0, 1), (1, 2), (2, 3)}


def test_k_equals_n_minus_one_gives_complete_graph():
    rng = np.random.default_rng(0)
    domain = random_embedding(6, 3, rng)
    g = knn_mst(domain, k=5)
    assert g.edges() == {(i, j) for i in range(6) for j in range(i + 1, 6)}


def _stable_knn(points: np.ndarray, k: int) -> np.ndarray:
    exact = ((points[:, None] - points[None, :]) ** 2).sum(axis=2)
    np.fill_diagonal(exact, np.inf)
    return np.sort(np.argsort(exact, axis=1, kind="stable")[:, :k], axis=1)


def test_mst_matches_kruskal_oracle_and_degree_bound():
    rng = np.random.default_rng(99)
    for trial in range(30):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, 6))
        domain = random_embedding(n, d, rng)
        for k in (1, 3):
            if k >= n:
                continue
            g = knn_mst(domain, k)
            assert g.knn.shape == (n, k) and g.knn.dtype == np.int32
            np.testing.assert_array_equal(g.knn, _stable_knn(domain.vectors, k))
            assert g.mst_edges == kruskal_mst(domain.vectors)
            assert g.min_degree() >= k


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_knn_mst_properties_on_small_point_sets(data):
    # small integer coordinates: duplicate points and tied distances are
    # common, and every squared distance is exact in float64
    n = data.draw(st.integers(2, 16))
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, n - 1))
    points = np.array(data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                         min_size=n, max_size=n)), dtype=np.float64)
    g = knn_mst(_emb(points), k)
    assert g.min_degree() >= k
    for i, nbrs in enumerate(g.neighbors):
        assert i not in nbrs
        assert all(i in g.neighbors[j] for j in nbrs)
    assert len(g.mst) == n - 1 and len(g.mst_edges) == n - 1
    assert len(transitive_closure_components(n, g.mst_edges)) == 1
    np.testing.assert_array_equal(g.knn, _stable_knn(points, k))


def test_adjacency_symmetric():
    rng = np.random.default_rng(3)
    g = knn_mst(random_embedding(25, 4, rng), k=4)
    for i, nbrs in enumerate(g.neighbors):
        assert i not in nbrs
        for j in nbrs:
            assert i in g.neighbors[j]


def test_blocked_knn_and_mst_with_ties_across_blocks(monkeypatch):
    # integer grid points (plus two duplicates) give exactly tied distances;
    # a tiny byte budget makes blocks of 5 rows, so tied rows fall in different blocks
    grid = np.array([(x, y) for y in range(7) for x in range(6)], dtype=np.float64)
    points = np.vstack([grid, grid[[4, 17]]])
    n = len(points)
    monkeypatch.setattr(imputation, "_BLOCK_BYTES", 8 * n * 5)
    monkeypatch.setattr(imputation, "_MIN_BLOCK_ROWS", 1)
    domain = _emb(points)
    length = lambda edges: sum(np.linalg.norm(points[i] - points[j]) for i, j in edges)
    oracle_length = length(kruskal_mst(points))  # tied MSTs differ in edges, not in length
    for k in (1, 3, 4, 6):
        g = knn_mst(domain, k)

        nearest = _stable_knn(points, k)
        assert g.knn.shape == (n, k)
        np.testing.assert_array_equal(g.knn, nearest)
        expected = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in nearest[i]}
        assert g.knn_edges == expected

        mst = g.mst_edges
        assert len(mst) == n - 1
        assert abs(length(mst) - oracle_length) < 1e-9
        assert len(transitive_closure_components(n, mst)) == 1
        assert g.min_degree() >= k
        assert g.edges() == {(i, int(j)) for i, nbrs in enumerate(g.neighbors) for j in nbrs if i < j}


def test_k_too_large_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="k=5"):
        knn_mst(random_embedding(5, 2, rng), k=5)


# ---------------------------------------------------------------------------
# solve_weights

def test_midpoint_gets_half_half():
    # n1 sits exactly between n0 and n2; with k=1 its neighbors are both ends
    domain = _emb([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    g = knn_mst(domain, k=1)
    w = solve_weights(domain, g, anchors={0, 2})
    entries = dict(w.row_entries(1))
    assert entries == pytest.approx({0: 0.5, 2: 0.5})


def test_exact_neighbor_copy_gets_weight_one():
    domain = _emb([[1.0, 1.0], [1.0, 1.0 + 1e-12], [5.0, 5.0], [9.0, 0.0]])
    g = knn_mst(domain, k=1)
    w = solve_weights(domain, g, anchors={1, 2, 3})
    entries = dict(w.row_entries(0))
    assert entries[1] == pytest.approx(1.0, abs=1e-9)


def test_weight_matrix_invariants_random():
    rng = np.random.default_rng(17)
    domain = random_embedding(40, 6, rng)
    g = knn_mst(domain, k=5)
    anchors = set(range(0, 40, 4))
    w = solve_weights(domain, g, anchors)
    edges = g.edges()
    for i in range(40):
        entries = w.row_entries(i)
        assert all(weight >= 0 for _, weight in entries)
        if i in anchors:
            assert entries == [(i, 1.0)]
        else:
            assert abs(sum(weight for _, weight in entries) - 1.0) < 1e-9
            for j, _ in entries:
                assert (min(i, j), max(i, j)) in edges


def test_reconstruction_no_worse_than_uniform():
    rng = np.random.default_rng(30)
    domain = random_embedding(30, 5, rng)
    g = knn_mst(domain, k=4)
    anchors = set(range(0, 30, 3))
    w = solve_weights(domain, g, anchors)
    non_anchor = [i for i in range(30) if i not in anchors]

    uniform = sp.lil_matrix((30, 30))
    for i in non_anchor:
        nbrs = g.neighbors[i]
        uniform[i, nbrs] = 1.0 / len(nbrs)
    err_nnls = np.linalg.norm((w.matrix @ domain.vectors - domain.vectors)[non_anchor])
    err_unif = np.linalg.norm((uniform.tocsr() @ domain.vectors - domain.vectors)[non_anchor])
    assert err_nnls <= err_unif + 1e-12


# ---------------------------------------------------------------------------
# impute

def _weights_from_rows(rows: dict[int, dict[int, float]], anchors: set[int], n: int) -> WeightMatrix:
    m = sp.lil_matrix((n, n))
    for i in anchors:
        m[i, i] = 1.0
    for i, entries in rows.items():
        for j, v in entries.items():
            m[i, j] = v
    return WeightMatrix(m.tocsr(), frozenset(anchors))


def test_all_anchor_neighbors_converge_in_one_step():
    # node 2 depends only on anchors: one step lands on the weighted average
    weights = _weights_from_rows({2: {0: 0.25, 1: 0.75}}, {0, 1}, 3)
    semantic = _emb([[1.0, 0.0], [0.0, 1.0]])
    anchors = AnchorMap([(0, 0), (1, 1)])
    res = impute(weights, anchors, semantic, ["n0", "n1", "w"], LsiConfig(k=1, eta=1e-4))
    np.testing.assert_allclose(res.imputed.vectors[0], [0.25, 0.75], atol=1e-12)
    assert res.converged


def test_all_anchors_with_identity_weights_impute_nothing():
    weights = WeightMatrix(sp.identity(3, format="csr"), frozenset(range(3)))
    semantic = _emb([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    anchors = AnchorMap([(2, 0), (0, 1), (1, 2)])
    res = impute(weights, anchors, semantic, ["a", "b", "c"], LsiConfig(k=1))
    assert len(res.imputed) == 0 and res.imputed.dim == 2
    assert (res.iterations, res.residual, res.converged) == (0, 0.0, True)
    assert res.unreachable_tokens == [] and res.fallback_rows == 0


def test_anchor_vectors_bit_identical():
    rng = np.random.default_rng(8)
    domain = random_embedding(30, 4, rng, prefix="d")
    semantic_rows = rng.standard_normal((10, 6))
    semantic = EmbeddingMatrix([f"d{i}" for i in range(10)], semantic_rows)
    g = knn_mst(domain, k=3)
    anchor_rows = set(range(10))
    w = solve_weights(domain, g, anchor_rows)
    anchors = AnchorMap([(i, i) for i in range(10)])
    res = impute(w, anchors, semantic, list(domain.tokens), LsiConfig(k=3, eta=1e-6))
    assert res.converged
    # anchors are never part of the imputed output, and the source is untouched
    assert all(t not in res.imputed for t in semantic.tokens)
    assert semantic.vectors.tobytes() == semantic_rows.tobytes()


def test_fixed_point_residual_below_eta():
    rng = np.random.default_rng(21)
    domain = random_embedding(50, 5, rng, prefix="d")
    semantic = EmbeddingMatrix(
        [f"d{i}" for i in range(20)], rng.standard_normal((20, 8))
    )
    cfg = LsiConfig(k=4, eta=1e-4)
    g = knn_mst(domain, k=cfg.k)
    w = solve_weights(domain, g, set(range(20)))
    anchors = AnchorMap([(i, i) for i in range(20)])
    res = impute(w, anchors, semantic, list(domain.tokens), cfg)
    assert res.converged

    full = np.empty((50, 8))
    full[:20] = semantic.vectors
    for i, tok in enumerate(domain.tokens[20:], start=20):
        full[i] = res.imputed.row(tok)
    residual = np.abs((w.matrix @ full - full)[20:]).max()
    assert residual < cfg.eta
    assert res.residual == residual


def test_chain_matches_linear_system_oracle():
    # anchor a - u - v chain solved in closed form: (I - W_nn) x = W_na * a
    w_uu = np.array([[0.0, 0.5], [1.0, 0.0]])   # u depends on v, v depends on u
    w_ua = np.array([[0.5], [0.0]])             # u leans half on the anchor
    weights = _weights_from_rows(
        {1: {0: 0.5, 2: 0.5}, 2: {1: 1.0}}, {0}, 3
    )
    semantic = _emb([[2.0, -1.0]])
    anchors = AnchorMap([(0, 0)])
    res = impute(weights, anchors, semantic, ["a", "u", "v"], LsiConfig(k=1, eta=1e-4))

    expected = np.linalg.solve(np.eye(2) - w_uu, w_ua @ semantic.vectors)
    np.testing.assert_allclose(res.imputed.row("u"), expected[0], atol=1e-3)
    np.testing.assert_allclose(res.imputed.row("v"), expected[1], atol=1e-3)


def test_two_anchor_bridge_matches_linear_system():
    # a1 - u - v - a2: a genuinely nontrivial 2x2 fixed point
    weights = _weights_from_rows(
        {1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}, {0, 3}, 4
    )
    semantic = _emb([[1.0, 0.0], [0.0, 2.0]])
    anchors = AnchorMap([(0, 0), (1, 3)])
    res = impute(
        weights, anchors, semantic, ["a1", "u", "v", "a2"], LsiConfig(k=1, eta=1e-10)
    )
    w_nn = np.array([[0.0, 0.5], [0.5, 0.0]])
    w_na = np.array([[0.5, 0.0], [0.0, 0.5]])
    expected = np.linalg.solve(np.eye(2) - w_nn, w_na @ semantic.vectors)
    np.testing.assert_allclose(res.imputed.row("u"), expected[0], atol=1e-8)
    np.testing.assert_allclose(res.imputed.row("v"), expected[1], atol=1e-8)


def test_imputed_coordinates_stay_in_anchor_range():
    rng = np.random.default_rng(40)
    domain = random_embedding(60, 5, rng, prefix="d")
    semantic = EmbeddingMatrix([f"d{i}" for i in range(25)], rng.standard_normal((25, 4)))
    res = lsi_pipeline(semantic, domain, LsiConfig(k=5, eta=1e-6))
    lo = semantic.vectors.min(axis=0) - 1e-9
    hi = semantic.vectors.max(axis=0) + 1e-9
    assert (res.imputed.vectors >= lo).all()
    assert (res.imputed.vectors <= hi).all()


def test_unreachable_error_and_fallback_policies():
    # v depends only on itself-like cycle with u; neither touches the anchor
    weights = _weights_from_rows({1: {2: 1.0}, 2: {1: 1.0}}, {0}, 3)
    semantic = _emb([[1.0, 1.0]])
    anchors = AnchorMap([(0, 0)])
    with pytest.raises(ValueError, match="cannot reach any anchor"):
        impute(weights, anchors, semantic, ["a", "u", "v"],
               LsiConfig(k=1, eta=1e-4, unreachable_policy="error"))

    res = impute(weights, anchors, semantic, ["a", "u", "v"],
                 LsiConfig(k=1, eta=1e-4, unreachable_policy="anchor-mean"))
    assert res.unreachable_tokens == ["u", "v"]
    np.testing.assert_allclose(res.imputed.row("u"), [1.0, 1.0], atol=1e-12)


def test_reachability_matches_closure_oracle():
    # random sparse dependency graphs: i reaches an anchor when some W[i, j] > 0
    # leads to a node that already reaches one, iterated to a fixed point
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        anchors = set(rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist())
        rows = {
            i: {int(j): 1.0 for j in rng.choice(n, size=int(rng.integers(0, 3)), replace=False)}
            for i in range(n) if i not in anchors
        }
        dense = (_weights_from_rows(rows, anchors, n).matrix.toarray() > 0)
        expected = np.zeros(n, dtype=bool)
        expected[list(anchors)] = True
        for _ in range(n):
            expected |= dense[:, expected].any(axis=1)
        got = imputation._reachable_from_anchors(_weights_from_rows(rows, anchors, n))
        np.testing.assert_array_equal(got, expected)


def test_nonconvergence_flagged():
    weights = _weights_from_rows(
        {1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}, {0, 3}, 4
    )
    semantic = _emb([[1.0], [100.0]])
    anchors = AnchorMap([(0, 0), (1, 3)])
    res = impute(weights, anchors, semantic, ["a", "u", "v", "b"],
                 LsiConfig(k=1, eta=1e-12, max_iters=3))
    assert not res.converged
    assert res.iterations == 3


def _column_blocks(monkeypatch, width: int, n_unknown: int) -> None:
    monkeypatch.setattr(imputation, "_BLOCK_BYTES", 8 * n_unknown * width)


def test_column_blocks_identical_on_one_and_four_cores(monkeypatch):
    rng = np.random.default_rng(5)
    domain = random_embedding(60, 5, rng, prefix="d")
    semantic = EmbeddingMatrix([f"d{i}" for i in range(15)], rng.standard_normal((15, 30)))
    cfg = LsiConfig(k=4, eta=1e-6)
    w = solve_weights(domain, knn_mst(domain, cfg.k), set(range(15)))
    anchors = AnchorMap([(i, i) for i in range(15)])
    _column_blocks(monkeypatch, 10, 45)  # 30 columns: three blocks

    runs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # 3 threads, switched often
    try:
        for cores in (1, 4):
            monkeypatch.setattr(imputation, "_usable_cores", lambda: cores)
            runs.append(impute(w, anchors, semantic, list(domain.tokens), cfg))
    finally:
        sys.setswitchinterval(switch)
    one, four = runs
    assert (one.threads, four.threads) == (1, 3)  # one thread per block at most
    assert len(one.block_iterations) == 3 and one.block_iterations == four.block_iterations
    assert one.imputed.vectors.tobytes() == four.imputed.vectors.tobytes()
    assert (one.iterations, one.residual) == (four.iterations, four.residual)
    assert one.iterations == max(one.block_iterations) and one.converged

    full = np.vstack([semantic.vectors, one.imputed.vectors])
    assert one.residual == np.abs((w.matrix @ full - full)[15:]).max()


def test_column_blocks_stopping_apart_stay_within_bound_of_linear_solve(monkeypatch):
    # a1 - u1 - ... - u40 - a2 mixes slowly; columns scaled from 1e-3 to 10
    # converge at different steps, so each block stops on its own
    m = 40
    rows = {i: {i - 1: 0.5, i + 1: 0.5} for i in range(1, m + 1)}
    weights = _weights_from_rows(rows, {0, m + 1}, m + 2)
    scales = np.logspace(-3, 1, 24)
    semantic = _emb([scales, -2.0 * scales])
    anchors = AnchorMap([(0, 0), (1, m + 1)])
    tokens = ["a1"] + [f"u{i}" for i in range(1, m + 1)] + ["a2"]
    cfg = LsiConfig(k=1, eta=1e-6, max_iters=100_000)
    _column_blocks(monkeypatch, 8, m)
    res = impute(weights, anchors, semantic, tokens, cfg)
    assert res.converged
    assert len(res.block_iterations) == 3 and len(set(res.block_iterations)) == 3
    assert res.iterations == max(res.block_iterations)

    # capped where the first block stops, the other two have not converged
    fastest = min(res.block_iterations)
    capped = impute(weights, anchors, semantic, tokens,
                    LsiConfig(k=1, eta=1e-6, max_iters=fastest))
    assert not capped.converged and capped.block_iterations == [fastest] * 3

    dense = weights.matrix.toarray()
    w_uu, w_ua = dense[1:m + 1, 1:m + 1], dense[1:m + 1][:, [0, m + 1]]
    expected = np.linalg.solve(np.eye(m) - w_uu, w_ua @ semantic.vectors)
    hitting = np.linalg.solve(np.eye(m) - w_uu, np.ones(m))
    err = np.abs(res.imputed.vectors - expected).max()
    assert err <= cfg.eta * hitting.max()


def test_nonconvergence_flagged_in_every_column_block(monkeypatch):
    weights = _weights_from_rows(
        {1: {0: 0.5, 2: 0.5}, 2: {1: 0.5, 3: 0.5}}, {0, 3}, 4
    )
    semantic = _emb([np.ones(20), np.full(20, 100.0)])
    anchors = AnchorMap([(0, 0), (1, 3)])
    _column_blocks(monkeypatch, 8, 2)  # 20 columns: three blocks
    res = impute(weights, anchors, semantic, ["a", "u", "v", "b"],
                 LsiConfig(k=1, eta=1e-12, max_iters=3))
    assert not res.converged
    assert res.iterations == 3 and res.block_iterations == [3, 3, 3]


# ---------------------------------------------------------------------------
# lsi_pipeline

def test_pipeline_nothing_to_impute():
    rng = np.random.default_rng(2)
    domain = random_embedding(10, 3, rng)
    semantic = EmbeddingMatrix(list(domain.tokens), rng.standard_normal((10, 6)))
    res = lsi_pipeline(semantic, domain, LsiConfig(k=2))
    assert len(res.imputed) == 0
    assert res.converged
    assert res.iterations == 0
    assert res.residual == 0.0


def test_pipeline_zero_anchors_fatal():
    rng = np.random.default_rng(2)
    semantic = random_embedding(5, 3, rng, prefix="s")
    domain = random_embedding(5, 3, rng, prefix="d")
    with pytest.raises(ValueError, match="share no tokens"):
        lsi_pipeline(semantic, domain, LsiConfig(k=2))


def test_pipeline_beats_anchor_mean_on_shared_latent_data():
    bench = make_shared_latent_benchmark(n=120, latent_dim=3, dim=24, n_hidden=30, seed=11)
    res = lsi_pipeline(bench.semantic, bench.domain, LsiConfig(k=6))
    assert set(res.imputed.tokens) == set(bench.hidden_tokens)
    anchor_mean = bench.semantic.vectors.mean(axis=0)
    cos_lsi = np.mean([
        cosine_similarity(res.imputed.row(t), truth)
        for t, truth in zip(bench.hidden_tokens, bench.hidden_truth)
    ])
    cos_base = np.mean([
        cosine_similarity(anchor_mean, truth) for truth in bench.hidden_truth
    ])
    assert cos_lsi > cos_base


def test_pipeline_permutation_equivariance():
    rng = np.random.default_rng(77)
    domain = random_embedding(40, 6, rng, prefix="d")
    semantic = EmbeddingMatrix([f"d{i}" for i in range(15)], rng.standard_normal((15, 5)))
    cfg = LsiConfig(k=4, eta=1e-8)
    res = lsi_pipeline(semantic, domain, cfg)

    perm = rng.permutation(40)
    domain_perm = EmbeddingMatrix(
        [domain.tokens[i] for i in perm], domain.vectors[perm]
    )
    res_perm = lsi_pipeline(semantic, domain_perm, cfg)
    assert set(res_perm.imputed.tokens) == set(res.imputed.tokens)
    for tok in res.imputed.tokens:
        np.testing.assert_allclose(
            res_perm.imputed.row(tok), res.imputed.row(tok), atol=1e-9
        )


def test_config_validation():
    with pytest.raises(ValueError):
        LsiConfig(k=0)
    with pytest.raises(ValueError):
        LsiConfig(eta=0.0)
    with pytest.raises(ValueError):
        LsiConfig(eta=float("inf"))
    with pytest.raises(ValueError):
        LsiConfig(unreachable_policy="bogus")
