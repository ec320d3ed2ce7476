from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from lsimpute import SgnsConfig, train_sgns_full
from lsimpute.evaluation import cosine_similarity

from lsimpute.sgns import _corpus_ids, _keep_probabilities, _noise_cumulative, _train_batch

from oracles import build_vocabulary, sgd_step_by_central_differences, sgns_batch_sgd


def two_cluster_corpus(n_sentences: int = 200) -> list[list[str]]:
    return [["a", "b"] * 10 if i % 2 == 0 else ["x", "y"] * 10 for i in range(n_sentences)]


def test_gradient_matches_finite_differences():
    # the first center of the sentence [0, 1] at window 1, every token kept and
    # the one negative always token 2: its steps on w_in[0] and on its context
    # w_out[1], which the second center leaves alone, are alpha times the
    # central-difference gradient
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        w_in = rng.uniform(-1, 1, (3, 8))
        w_out = rng.uniform(-1, 1, (3, 8))
        alpha = float(rng.uniform(0.01, 0.5))
        d_center, d_context, _ = sgd_step_by_central_differences(w_in[0], w_out[1], w_out[2], alpha)
        got_in, got_out = w_in.copy(), w_out.copy()
        _train_batch(np.array([0, 1]), np.array([2]), np.array([alpha]), got_in, got_out,
                     np.array([0.0, 0.0, 1.0]), np.ones(3), 1, 1, 8, rng)
        for got, want in ((got_in[0] - w_in[0], d_center), (got_out[1] - w_out[1], d_context)):
            rel = np.abs(got - want) / np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
            worst = max(worst, float(rel.max()))
    assert worst < 1e-4


def test_two_cluster_separation():
    cfg = SgnsConfig(dim=16, epochs=5, negative=5, alpha=0.05, sample=0.0,
                     window=4, min_count=1, seed=3)
    emb = train_sgns_full(two_cluster_corpus(), cfg).embeddings
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
    e1 = train_sgns_full(two_cluster_corpus(40), cfg).embeddings
    e2 = train_sgns_full(two_cluster_corpus(40), cfg).embeddings
    assert e1.tokens == e2.tokens
    np.testing.assert_array_equal(e1.vectors, e2.vectors)


def test_corpus_ids_match_counter_oracle():
    # few distinct tokens, so counts tie often; sentences of rare tokens end up empty
    rng = np.random.default_rng(21)
    for trial in range(200):
        alphabet = np.array([f"t{i}" for i in range(int(rng.integers(1, 12)))])
        corpus = [rng.choice(alphabet, size=int(rng.integers(0, 6))).tolist()
                  for _ in range(int(rng.integers(1, 12)))]
        min_count = int(rng.integers(1, 6))
        try:
            want_tokens, want_counts = build_vocabulary(corpus, min_count)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                _corpus_ids(corpus, min_count)
            continue
        index = {t: i for i, t in enumerate(want_tokens)}
        sentences = [[index[t] for t in sent if t in index] for sent in corpus]
        sentences = [sent for sent in sentences if sent]
        tokens, counts, ids, lengths = _corpus_ids(corpus, min_count)
        assert tokens == want_tokens
        np.testing.assert_array_equal(counts, want_counts)
        assert counts.dtype == np.float64
        assert ids.tolist() == [i for sent in sentences for i in sent]
        assert lengths.tolist() == [len(sent) for sent in sentences]


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
                                   np.random.default_rng(trial))
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
        outputs.append(train_sgns_full(walks, scfg).embeddings)
    assert outputs[0].tokens == outputs[1].tokens
    assert outputs[0].vectors.tobytes() == outputs[1].vectors.tobytes()


def test_paper_style_configs_accepted():
    SgnsConfig(dim=200, window=15, epochs=50, min_count=1)
    SgnsConfig(dim=200, window=30, negative=10, alpha=0.05, sample=1e-4, epochs=10)


def test_min_count_filters_vocabulary():
    corpus = [["common", "common", "rare"]] * 3
    cfg = SgnsConfig(dim=4, epochs=1, negative=2, window=2, min_count=5, seed=0)
    emb = train_sgns_full(corpus, cfg).embeddings
    assert emb.tokens == ["common"]


def test_empty_vocabulary_raises():
    cfg = SgnsConfig(dim=4, epochs=1, negative=2, window=2, min_count=100, seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_sgns_full([["a", "b"]], cfg)


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SgnsConfig(seed=-1)
