from __future__ import annotations

import numpy as np
import pytest

from lsimpute import EmbeddingMatrix, align_baseline, fit_alignment

from conftest import make_shared_latent_benchmark, random_embedding


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def test_identity_when_spaces_match():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 8))
    q = fit_alignment(x, x)
    np.testing.assert_allclose(q.matrix, np.eye(8), atol=1e-10)


def test_recovers_random_rotation():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((80, 12))
    r = _random_orthogonal(12, rng)
    q = fit_alignment(x, x @ r)
    assert np.abs(q.matrix - r).max() < 1e-6


def test_orthogonality_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal((50, 10))
        y = rng.standard_normal((50, 10))
        q = fit_alignment(x, y)
        np.testing.assert_allclose(q.matrix.T @ q.matrix, np.eye(10), atol=1e-8)


@pytest.mark.parametrize("domain_dim, semantic_dim", [(4, 6), (6, 4)])
def test_map_between_dimensions_is_semi_orthogonal(domain_dim, semantic_dim):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, domain_dim))
    y = rng.standard_normal((30, semantic_dim))
    q = fit_alignment(x, y).matrix
    assert q.shape == (domain_dim, semantic_dim)
    small = min(domain_dim, semantic_dim)
    # the shorter side is orthonormal: Q Q^T = I for 4 -> 6, Q^T Q = I for 6 -> 4
    gram = q @ q.T if domain_dim < semantic_dim else q.T @ q
    np.testing.assert_allclose(gram, np.eye(small), atol=1e-10)


def test_noisy_fit_beats_random_orthogonal_maps():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 6))
    r = _random_orthogonal(6, rng)
    y = x @ r + 0.01 * rng.standard_normal((60, 6))
    q = fit_alignment(x, y)
    fitted = np.linalg.norm(x @ q.matrix - y)
    for _ in range(100):
        p = _random_orthogonal(6, rng)
        assert fitted <= np.linalg.norm(x @ p - y) + 1e-12


def test_fit_equivariance_under_input_rotation():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((70, 9))
    y = rng.standard_normal((70, 9))
    s = _random_orthogonal(9, rng)
    q = fit_alignment(x, y)
    q_rot = fit_alignment(x @ s, y)
    np.testing.assert_allclose(q_rot.matrix, s.T @ q.matrix, atol=1e-6)
    assert abs(q_rot.residual - q.residual) < 1e-8


def test_rank_deficient_fit_warns_but_computes(caplog):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 10))
    with caplog.at_level("WARNING"):
        q = fit_alignment(x, x)
    assert q.matrix.shape == (10, 10)
    assert any("rank-deficient" in rec.message for rec in caplog.records)


def test_baseline_covers_exactly_missing_tokens():
    rng = np.random.default_rng(6)
    domain = random_embedding(12, 5, rng, prefix="d")
    semantic = EmbeddingMatrix([f"d{i}" for i in range(8)], rng.standard_normal((8, 5)))
    aligned, qmap = align_baseline(semantic, domain)
    assert aligned.tokens == [f"d{i}" for i in range(8, 12)]
    for tok in aligned.tokens:
        np.testing.assert_allclose(
            aligned.row(tok), domain.row(tok) @ qmap.matrix, atol=1e-12
        )


def test_baseline_empty_when_fully_covered():
    rng = np.random.default_rng(7)
    domain = random_embedding(6, 4, rng)
    semantic = EmbeddingMatrix(list(domain.tokens), rng.standard_normal((6, 4)))
    aligned, _ = align_baseline(semantic, domain)
    assert len(aligned) == 0


def test_baseline_requires_anchors():
    rng = np.random.default_rng(8)
    semantic = random_embedding(4, 3, rng, prefix="s")
    domain = random_embedding(4, 3, rng, prefix="d")
    with pytest.raises(ValueError, match="anchor"):
        align_baseline(semantic, domain)


def test_baseline_tracks_truth_on_shared_latent_data():
    # sanity direction check: the aligned baseline is informative but beatable
    bench = make_shared_latent_benchmark(n=120, latent_dim=3, dim=24, n_hidden=30, seed=13)
    aligned, _ = align_baseline(bench.semantic, bench.domain)
    cos = [
        float(aligned.row(t) @ truth / (np.linalg.norm(aligned.row(t)) * np.linalg.norm(truth)))
        for t, truth in zip(bench.hidden_tokens, bench.hidden_truth)
    ]
    assert np.mean(cos) > 0.0
