"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
for passing tests too). Every tolerance is fixed here, not configurable.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from lsimpute import (
    AnchorMap,
    EmbeddingMatrix,
    ExtractionConfig,
    LabeledGraph,
    LsiConfig,
    SgnsConfig,
    WalkConfig,
    bootstrap_eval,
    build_transition_tables,
    classify_pairs,
    extract_subgraph,
    filter_corpus,
    find_anchors,
    fit_alignment,
    generate_walks,
    impute,
    knn_mst,
    lsi_pipeline,
    nnls,
    pearson,
    read_embeddings,
    solve_weights,
    train_sgns_full,
)
from lsimpute.evaluation import WordPair, WordPairDataset
from lsimpute.graph import parse_ntriples_file
from lsimpute.sgns import _train_batch

from conftest import make_shared_latent_benchmark, random_embedding, weight_row
from oracles import (
    kruskal_mst,
    naive_filter,
    projected_gradient_nnls,
    sgd_step_by_central_differences,
)


def test_criterion_01_nnls_matches_projected_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        A = rng.uniform(-1, 1, (6, 3))
        b = rng.uniform(-1, 1, 6)
        x = nnls(A, b)
        assert (x >= 0).all()
        x_ref = projected_gradient_nnls(A, b, tol=1e-12)
        gap = abs(np.linalg.norm(A @ x - b) - np.linalg.norm(A @ x_ref - b))
        worst = max(worst, gap)
        assert gap < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: nnls residual gap vs projected-gradient oracle "
          f"max {worst:.2e} < 1e-8 on 200 instances ({elapsed:.2f}s)")


def test_criterion_02_mst_matches_kruskal_and_degree_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(6, 65))
        d = int(rng.integers(1, 9))
        points = rng.uniform(-1, 1, (n, d))
        dists = np.linalg.norm(points[:, None] - points[None, :], axis=2)
        flat = dists[np.triu_indices(n, k=1)]
        assert len(np.unique(flat)) == len(flat), "duplicate distance in random draw"
        domain = EmbeddingMatrix([f"p{i}" for i in range(n)], points)
        for k in (1, 3, 5):
            g = knn_mst(domain, k)
            assert g.mst_edges == kruskal_mst(points)
            assert min(map(len, g.neighbors)) >= k
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS: MST equals Kruskal oracle and min degree >= k "
          f"on {checked} graph builds ({elapsed:.2f}s)")


def test_criterion_03_weight_matrix_invariants():
    rng = np.random.default_rng(3003)
    for trial in range(3):
        domain = random_embedding(100, 8, rng)
        anchors = set(rng.choice(100, size=20, replace=False).tolist())
        g = knn_mst(domain, k=8)
        w = solve_weights(domain, g, anchors)
        for i in range(100):
            entries = weight_row(w, i)
            assert all(weight >= 0 for _, weight in entries)
            if i in anchors:
                assert entries == [(i, 1.0)]
            else:
                assert abs(sum(weight for _, weight in entries) - 1.0) < 1e-9
    print("ACCEPTANCE 3 PASS: weights nonnegative, non-anchor rows sum to 1 "
          "within 1e-9, anchor rows exactly identity (3 random 100-node instances)")


def test_criterion_04_fixed_point_and_anchor_preservation():
    eta = 1e-4
    rng = np.random.default_rng(4004)
    domain = random_embedding(60, 6, rng, prefix="d")
    sem_vectors = rng.standard_normal((25, 10))
    semantic = EmbeddingMatrix([f"d{i}" for i in range(25)], sem_vectors)
    cfg = LsiConfig(k=5, eta=eta)
    g = knn_mst(domain, k=cfg.k)
    w = solve_weights(domain, g, set(range(25)))
    anchors = AnchorMap([(i, i) for i in range(25)])
    res = impute(w, anchors, semantic, list(domain.tokens), cfg)
    assert res.converged

    # residual of the fixed-point equation on non-anchor rows
    full = np.empty((60, 10))
    full[:25] = semantic.vectors
    for i, tok in enumerate(domain.tokens[25:], start=25):
        full[i] = res.imputed.row(tok)
    residual = float(np.abs((w.matrix @ full - full)[25:]).max())
    assert residual < eta

    # anchors bit-identical to the input semantic vectors
    assert semantic.vectors.tobytes() == sem_vectors.tobytes()
    assert all(tok not in res.imputed for tok in semantic.tokens)

    # 3-node chain: anchor a - u - v, iterate vs direct 2x2 linear solve
    chain = EmbeddingMatrix(["a", "u", "v"], np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
    sem_chain = EmbeddingMatrix(["a"], np.array([[3.0, -1.5]]))
    g2 = knn_mst(chain, k=1)
    w2 = solve_weights(chain, g2, {0})
    res2 = impute(w2, AnchorMap([(0, 0)]), sem_chain, ["a", "u", "v"],
                  LsiConfig(k=1, eta=eta))
    dense = w2.matrix.toarray()
    w_nn = dense[1:, 1:]
    w_na = dense[1:, :1]
    expected = np.linalg.solve(np.eye(2) - w_nn, w_na @ sem_chain.vectors)
    got = np.vstack([res2.imputed.row("u"), res2.imputed.row("v")])
    assert np.abs(got - expected).max() < 1e-3
    print(f"ACCEPTANCE 4 PASS: fixed-point residual {residual:.2e} < {eta}, anchors "
          f"bit-identical, chain matches 2x2 linear solve within 1e-3")


def test_criterion_05_synthetic_benchmark_beats_anchor_mean():
    start = time.perf_counter()
    bench = make_shared_latent_benchmark(
        n=500, latent_dim=5, dim=200, n_hidden=150, noise=0.01, seed=7
    )
    res = lsi_pipeline(bench.semantic, bench.domain, LsiConfig(k=10))
    assert set(res.imputed.tokens) == set(bench.hidden_tokens)

    imputed = np.array([res.imputed.row(t) for t in bench.hidden_tokens])
    truth = bench.hidden_truth
    anchor_mean = bench.semantic.vectors.mean(axis=0)

    def mean_cosine(a: np.ndarray, b: np.ndarray) -> float:
        num = (a * b).sum(axis=1)
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        return float((num / den).mean())

    cos_lsi = mean_cosine(imputed, truth)
    cos_base = mean_cosine(np.tile(anchor_mean, (len(truth), 1)), truth)
    assert cos_lsi >= cos_base + 0.2

    rng = np.random.default_rng(555)
    pairs = rng.integers(0, len(truth), size=(1000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]

    def pair_cosines(m: np.ndarray) -> np.ndarray:
        a, b = m[pairs[:, 0]], m[pairs[:, 1]]
        return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))

    true_pc = pair_cosines(truth)
    r_lsi = pearson(pair_cosines(imputed), true_pc)
    # the anchor-mean baseline assigns one shared vector, so its pair cosines
    # are constant and its correlation undefined; score that as zero
    try:
        r_base = pearson(pair_cosines(np.tile(anchor_mean, (len(truth), 1))), true_pc)
    except ValueError:
        r_base = 0.0
    assert r_lsi > r_base
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 PASS: mean cosine {cos_lsi:.3f} vs baseline {cos_base:.3f} "
          f"(margin {cos_lsi - cos_base:.3f} >= 0.2); pair-cosine r {r_lsi:.3f} > "
          f"{r_base:.3f} ({elapsed:.1f}s)")


def test_criterion_06_procrustes_recovery():
    rng = np.random.default_rng(6006)
    x = rng.standard_normal((200, 50))
    r, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    q = fit_alignment(x, x @ r)
    rec_err = float(np.abs(q.matrix - r).max())
    orth_err = float(np.abs(q.matrix.T @ q.matrix - np.eye(50)).max())
    assert rec_err < 1e-6
    assert orth_err < 1e-8
    print(f"ACCEPTANCE 6 PASS: rotation recovered within {rec_err:.2e} (< 1e-6), "
          f"Q^T Q off identity by {orth_err:.2e} (< 1e-8)")


def test_criterion_07_sgns_gradient_finite_differences():
    # the trainer on the sentence [0, 1] at window 1, every token kept and the
    # one negative always token 2: center 0 steps on w_in[0], w_out[1] and
    # w_out[2], then center 1 on w_in[1], w_out[0] and w_out[2]. Each step must
    # be alpha times the central-difference gradient at the values before it.
    rng = np.random.default_rng(7007)
    noise_cum = np.array([0.0, 0.0, 1.0])
    worst = 0.0
    for _ in range(50):
        w_in = rng.uniform(-1, 1, (3, 8))
        w_out = rng.uniform(-1, 1, (3, 8))
        alpha = float(rng.uniform(0.01, 0.5))
        ref_in, ref_out = w_in.copy(), w_out.copy()
        for center, context in ((0, 1), (1, 0)):
            d_center, d_context, d_negative = sgd_step_by_central_differences(
                ref_in[center], ref_out[context], ref_out[2], alpha)
            ref_in[center] += d_center
            ref_out[context] += d_context
            ref_out[2] += d_negative[0]
        got_in, got_out = w_in.copy(), w_out.copy()
        _train_batch(np.array([0, 1]), np.array([2]), np.array([alpha]), got_in, got_out,
                     noise_cum, np.ones(3), 1, 1, 8, rng)
        for got, want, before in ((got_in, ref_in, w_in), (got_out, ref_out, w_out)):
            got, want = got - before, want - before
            rel = np.abs(got - want) / np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
            worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    print(f"ACCEPTANCE 7 PASS: analytic gradient vs central differences, "
          f"max relative error {worst:.2e} < 1e-4 on 50 examples")


def _barbell() -> LabeledGraph:
    edges = set()
    for a in range(5):
        for b in range(a + 1, 5):
            edges.add((a, b))
            edges.add((a + 5, b + 5))
    edges.add((4, 5))
    ids = [f"v{i}" for i in range(10)]
    return LabeledGraph(ids, ids, edges)


def test_criterion_08_node2vec_separates_barbell_cliques():
    start = time.perf_counter()
    g = _barbell()
    wins = 0
    for seed in range(100):
        wcfg = WalkConfig(p=1.0, q=1.0, n_walks=10, walk_length=20, seed=seed)
        walks = generate_walks(build_transition_tables(g, wcfg), g, wcfg)
        scfg = SgnsConfig(dim=16, epochs=5, negative=3, alpha=0.05, sample=0.0,
                          window=3, min_count=1, seed=seed)
        emb = train_sgns_full(walks, scfg).embeddings
        vecs = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
        cos = vecs @ vecs.T
        idx = {t: i for i, t in enumerate(emb.tokens)}
        intra, cross = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                value = cos[idx[f"v{i}"], idx[f"v{j}"]]
                (intra if (i < 5) == (j < 5) else cross).append(value)
        wins += float(np.mean(intra)) > float(np.mean(cross))
    elapsed = time.perf_counter() - start
    assert wins >= 95
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8 PASS: intra-clique cosine beat cross-clique in "
          f"{wins}/100 seeded runs (>= 95) ({elapsed:.1f}s)")


def test_criterion_09_evaluation_kernels():
    # closed-form pearson on the 4-point fixture
    r = pearson(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 3.0, 2.0, 4.0]))
    assert abs(r - 0.8) < 1e-12

    # bootstrap reproducibility, bit for bit
    rng = np.random.default_rng(909)
    emb = random_embedding(10, 4, rng)
    records = []
    for i in range(10):
        for j in range(i + 1, 10):
            records.append(WordPair(f"w{i}", f"w{j}",
                                    float(rng.uniform(0, 1600)), float(rng.uniform(0, 1600))))
    ds = WordPairDataset(records)
    split = classify_pairs(ds, {f"w{i}" for i in range(5)}, {f"w{i}" for i in range(5, 10)})
    a = bootstrap_eval(emb, split, n_resamples=300, seed=17)
    b = bootstrap_eval(emb, split, n_resamples=300, seed=17)
    assert a.to_json() == b.to_json()

    # partition identity on 1,000 random datasets
    vocab = [f"w{i}" for i in range(10)]
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        seen, rows = set(), []
        while len(rows) < n:
            t1, t2 = rng.choice(vocab, 2, replace=False)
            if frozenset((t1, t2)) not in seen:
                seen.add(frozenset((t1, t2)))
                rows.append(WordPair(t1, t2, 1.0, 1.0))
        members = list(rng.permutation(vocab))
        cut1, cut2 = sorted(rng.integers(0, 11, 2))
        split = classify_pairs(WordPairDataset(rows), set(members[:cut1]), set(members[cut1:cut2]))
        assert sum(len(v) for v in split.subsets.values()) + len(split.skipped) == n
    print("ACCEPTANCE 9 PASS: pearson fixture within 1e-12, bootstrap bit-reproducible, "
          "partition identity on 1000 random datasets")


def test_criterion_10_corpus_filter_matches_naive_scan():
    rng = np.random.default_rng(1010)
    vocab = [f"word{i}" for i in range(50)] + ["anemia", "rales", "lasix", "aspirin"]
    sentences = [
        " ".join(rng.choice(vocab, size=int(rng.integers(1, 14))))
        + str(rng.choice(["", ".", "!", " (note)"]))
        for _ in range(10_000)
    ]
    terms = {"anemia", "rales", "word7", "word13"}
    kept, stats = filter_corpus(sentences, terms)
    assert kept == naive_filter(sentences, terms)
    assert stats.total == 10_000 and stats.removed == 10_000 - len(kept)
    kept2, stats2 = filter_corpus(kept, terms)
    assert kept2 == kept and stats2.removed == 0
    print(f"ACCEPTANCE 10 PASS: filter equals naive scan on 10000 sentences "
          f"({stats.removed} removed), idempotent on second pass")


MESH_DUMP = os.environ.get("LSIMPUTE_MESH_DUMP")
MESH_WORDVEC = os.environ.get("LSIMPUTE_WORDVEC")


@pytest.mark.skipif(
    not MESH_DUMP, reason="set LSIMPUTE_MESH_DUMP to the 2021 MeSH N-Triples dump to run"
)
def test_criterion_11_mesh_graph_counts():
    cfg = ExtractionConfig(
        node_types={"http://id.nlm.nih.gov/mesh/vocab#TopicalDescriptor"},
        bridge_types={"http://id.nlm.nih.gov/mesh/vocab#Concept"},
    )
    triples = parse_ntriples_file(MESH_DUMP, cfg)
    graph = extract_subgraph(triples, cfg)
    assert graph.n_nodes == 58_695
    assert graph.n_edges == 113_094
    if MESH_WORDVEC:
        from lsimpute import normalize_label

        semantic = read_embeddings(MESH_WORDVEC)
        labels = sorted({normalize_label(lbl) for lbl in graph.labels})
        domain = EmbeddingMatrix(labels, np.zeros((len(labels), 1)))
        anchors = find_anchors(semantic, domain)
        assert len(anchors) == 12_676
    print("ACCEPTANCE 11 PASS: MeSH subgraph counts match (58,695 nodes / 113,094 edges)")
