from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from lsimpute import SgnsConfig, sgns_pair_gradient, train_sgns, train_sgns_full
from lsimpute.evaluation import cosine_similarity

from lsimpute.sgns import _keep_probabilities, _noise_cumulative, _train_batch

from oracles import pair_log_likelihood, sgns_batch_sgd


def two_cluster_corpus(n_sentences: int = 200) -> list[list[str]]:
    return [["a", "b"] * 10 if i % 2 == 0 else ["x", "y"] * 10 for i in range(n_sentences)]


def test_gradient_zero_vectors_closed_form():
    dim = 6
    zeros = np.zeros(dim)
    context = np.arange(1.0, dim + 1)
    negatives = np.ones((2, dim))
    for label in (0.0, 1.0):
        g_center, g_context, g_negs = sgns_pair_gradient(zeros, context, negatives, label)
        # at zero dot products every sigmoid is 0.5
        np.testing.assert_allclose(
            g_center, (label - 0.5) * context + (-0.5) * negatives.sum(axis=0), atol=1e-12
        )
        np.testing.assert_allclose(g_context, np.zeros(dim), atol=1e-12)
        np.testing.assert_allclose(g_negs, np.zeros((2, dim)), atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        center = rng.uniform(-1, 1, 8)
        context = rng.uniform(-1, 1, 8)
        negatives = rng.uniform(-1, 1, (3, 8))
        label = float(rng.integers(0, 2))
        g_center, g_context, g_negs = sgns_pair_gradient(center, context, negatives, label)

        def fd(vecs, grad):
            nonlocal worst
            flat_grad = np.asarray(grad).ravel()
            base = np.asarray(vecs, dtype=np.float64)
            for idx in range(base.size):
                plus, minus = base.copy().ravel(), base.copy().ravel()
                plus[idx] += h
                minus[idx] -= h
                args = {
                    "center": center, "context": context, "negatives": negatives,
                }
                key = [k for k, v in args.items() if v is vecs][0]
                args_p, args_m = dict(args), dict(args)
                args_p[key] = plus.reshape(base.shape)
                args_m[key] = minus.reshape(base.shape)
                numeric = (
                    pair_log_likelihood(args_p["center"], args_p["context"], args_p["negatives"], label)
                    - pair_log_likelihood(args_m["center"], args_m["context"], args_m["negatives"], label)
                ) / (2 * h)
                denom = max(abs(numeric), abs(flat_grad[idx]), 1e-8)
                worst = max(worst, abs(numeric - flat_grad[idx]) / denom)

        fd(center, g_center)
        fd(context, g_context)
        fd(negatives, g_negs)
    assert worst < 1e-4


def test_gradient_sign_flip_symmetry():
    rng = np.random.default_rng(7)
    center = rng.uniform(-1, 1, 5)
    context = rng.uniform(-1, 1, 5)
    negatives = rng.uniform(-1, 1, (2, 5))

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    for c, o in ((center, context), (-center, -context)):
        g_center, g_context, _ = sgns_pair_gradient(c, o, negatives, 1.0)
        np.testing.assert_allclose(g_context, (1.0 - sigmoid(c @ o)) * c, atol=1e-12)
    # flipping both vectors leaves the dot product, and hence the pair factor, unchanged
    g1 = sgns_pair_gradient(center, context, negatives, 1.0)[1]
    g2 = sgns_pair_gradient(-center, -context, negatives, 1.0)[1]
    np.testing.assert_allclose(g2, -g1, atol=1e-12)


def test_two_cluster_separation():
    cfg = SgnsConfig(dim=16, epochs=5, negative=5, alpha=0.05, sample=0.0,
                     window=4, min_count=1, seed=3)
    emb = train_sgns(two_cluster_corpus(), cfg)
    cos_ab = cosine_similarity(emb.row("a"), emb.row("b"))
    cos_ax = cosine_similarity(emb.row("a"), emb.row("x"))
    assert cos_ab > cos_ax


def test_epoch_loss_non_increasing_first_three():
    cfg = SgnsConfig(dim=16, epochs=3, negative=5, alpha=0.05, sample=0.0,
                     window=4, min_count=1, seed=3)
    result = train_sgns_full(two_cluster_corpus(), cfg)
    assert len(result.epoch_loss) == 3
    assert result.epoch_loss[0] >= result.epoch_loss[1] >= result.epoch_loss[2]


def test_training_deterministic_single_threaded():
    cfg = SgnsConfig(dim=8, epochs=2, negative=3, alpha=0.05, sample=1e-2,
                     window=3, min_count=1, seed=5)
    e1 = train_sgns(two_cluster_corpus(40), cfg)
    e2 = train_sgns(two_cluster_corpus(40), cfg)
    assert e1.tokens == e2.tokens
    np.testing.assert_array_equal(e1.vectors, e2.vectors)


def test_sentence_update_matches_pairwise_oracle():
    # a five-token vocabulary makes repeated output rows within one center the
    # rule, so each distinct row must carry every occurrence; sample > 0 drops
    # tokens, and short runs split sentences, so contexts cross run boundaries
    rng = np.random.default_rng(3)
    counts = np.array([40.0, 25.0, 15.0, 12.0, 8.0])
    noise_cum = _noise_cumulative(counts)
    keep_prob = _keep_probabilities(counts, 0.05)
    for trial in range(20):
        sentences = [rng.integers(0, 5, size=int(rng.integers(1, 16)))
                     for _ in range(int(rng.integers(1, 5)))]
        alphas = rng.uniform(0.02, 0.2, size=len(sentences))
        run_centers = int(rng.integers(1, 12))
        w_in = rng.standard_normal((5, 6)) / 6
        w_out = rng.standard_normal((5, 6)) / 6
        ref_in, ref_out = w_in.copy(), w_out.copy()
        loss, pairs = _train_batch(np.concatenate(sentences), np.array([len(s) for s in sentences]),
                                   alphas, w_in, w_out, noise_cum, keep_prob, 3, 4, run_centers,
                                   np.random.default_rng(trial), track_loss=True)
        ref_loss, ref_pairs = sgns_batch_sgd(sentences, alphas.tolist(), ref_in, ref_out,
                                             noise_cum, keep_prob, 3, 4, run_centers,
                                             np.random.default_rng(trial))
        assert pairs == ref_pairs
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(w_in, ref_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_out, ref_out, rtol=0, atol=1e-12)


def test_long_sentence_temporaries_stay_bounded():
    # one 50,000-token sentence: the trainer works through it in runs of
    # centers, so its temporaries stay near the run cap (measured: 3.9 MB);
    # a trainer that takes the whole sentence at once holds ~1.8 M output
    # slots at window 5 and negative 5 (measured: 64 MB)
    corpus = [[f"t{i}" for i in np.random.default_rng(0).integers(0, 50, size=50_000)]]
    cfg = SgnsConfig(dim=8, epochs=1, negative=5, alpha=0.05, sample=0.0,
                     window=5, min_count=1, seed=2)
    import scipy.special  # noqa: F401  the trainer's first import is no temporary
    tracemalloc.start()
    try:
        result = train_sgns_full(corpus, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.epoch_loss[0] < 6 * math.log(2)  # below the loss at all-zero scores
    assert peak < 8 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_graph_to_embedding_chain_deterministic():
    # tables -> walks -> training, same seeds end to end, bit-identical output
    from lsimpute import LabeledGraph, WalkConfig, build_transition_tables, generate_walks

    g = LabeledGraph(list("abcd"), list("ABCD"), {(0, 1), (1, 2), (2, 3), (0, 3)})
    wcfg = WalkConfig(p=0.5, q=2.0, n_walks=4, walk_length=8, seed=11)
    scfg = SgnsConfig(dim=8, epochs=2, negative=2, alpha=0.05, sample=0.0,
                      window=2, min_count=1, seed=11)
    outputs = []
    for _ in range(2):
        walks = generate_walks(build_transition_tables(g, wcfg), g, wcfg)
        outputs.append(train_sgns(walks, scfg))
    assert outputs[0].tokens == outputs[1].tokens
    assert outputs[0].vectors.tobytes() == outputs[1].vectors.tobytes()


def test_paper_style_configs_accepted():
    SgnsConfig(dim=200, window=15, epochs=50, min_count=1)
    SgnsConfig(dim=200, window=30, negative=10, alpha=0.05, sample=1e-4, epochs=10)


def test_min_count_filters_vocabulary():
    corpus = [["common", "common", "rare"]] * 3
    cfg = SgnsConfig(dim=4, epochs=1, negative=2, window=2, min_count=5, seed=0)
    emb = train_sgns(corpus, cfg)
    assert emb.tokens == ["common"]


def test_empty_vocabulary_raises():
    cfg = SgnsConfig(dim=4, epochs=1, negative=2, window=2, min_count=100, seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_sgns([["a", "b"]], cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SgnsConfig(dim=0)
    with pytest.raises(ValueError):
        SgnsConfig(alpha=0.0)
    with pytest.raises(ValueError):
        SgnsConfig(negative=0)
    with pytest.raises(ValueError):
        SgnsConfig(alpha=float("inf"))
    with pytest.raises(ValueError):
        SgnsConfig(sample=float("inf"))
