from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from lsimpute import (
    EmbeddingMatrix,
    WordPairDataset,
    bootstrap_eval,
    classify_pairs,
    cosine_similarity,
    load_wordpair_dataset,
    pearson,
    split_vocab,
)
from lsimpute.evaluation import (
    _CHUNK_BYTES, SCORE_TYPES, DatasetFormatError, WordPair, _bootstrap_r,
)

from oracles import per_score_bootstrap


def _dataset(rows: list[tuple[str, str, float, float]]) -> WordPairDataset:
    return WordPairDataset([WordPair(*r) for r in rows])


def test_load_dataset(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text(
        "Term1,Term2,Similarity,Relatedness\n"
        "Anemia,Coumadin,623.75,926.50\n"
        "Rales,Lasix,742.00,1379.50\n"
    )
    ds = load_wordpair_dataset(str(p))
    assert len(ds) == 2
    assert ds.records[0].term1 == "anemia" and ds.records[0].term2 == "coumadin"
    assert ds.records[1].similarity == 742.00


def test_load_dataset_normalizes_multiword_terms(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("Term1,Term2,Similarity,Relatedness\nHeart Attack,Aspirin,100,200\n")
    ds = load_wordpair_dataset(str(p))
    assert ds.records[0].term1 == "heart-attack"


def test_load_dataset_accepts_utf8_bom(tmp_path):
    # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
    p = tmp_path / "bom.csv"
    p.write_bytes("\ufeffTerm1,Term2,Similarity,Relatedness\nAnemia,Rales,10,20\n".encode())
    ds = load_wordpair_dataset(str(p))
    assert [(r.term1, r.term2) for r in ds.records] == [("anemia", "rales")]


def test_load_dataset_rejects_out_of_range_scores(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("Term1,Term2,Similarity,Relatedness\na,b,1700,100\n")
    with pytest.raises(DatasetFormatError, match=":2.*1700"):
        load_wordpair_dataset(str(p))


def test_load_dataset_rejects_malformed_rows(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("Term1,Term2,Similarity,Relatedness\na,b,x,100\n")
    with pytest.raises(DatasetFormatError, match=":2"):
        load_wordpair_dataset(str(p))
    p.write_text("Wrong,Header\na,b,1,1\n")
    with pytest.raises(DatasetFormatError, match=":1"):
        load_wordpair_dataset(str(p))


def test_split_vocab_sizes():
    trained, imputed = split_vocab({f"t{i}" for i in range(10)}, seed=1)
    assert {len(trained), len(imputed)} == {5}
    trained, imputed = split_vocab({f"t{i}" for i in range(11)}, seed=1)
    assert sorted([len(trained), len(imputed)]) == [5, 6]


def test_split_vocab_deterministic_and_disjoint():
    terms = {f"t{i}" for i in range(31)}
    a = split_vocab(terms, seed=7)
    b = split_vocab(terms, seed=7)
    assert a == b
    assert a[0] | a[1] == terms and not (a[0] & a[1])
    assert split_vocab(terms, seed=8) != a


def test_classify_pairs_routing():
    ds = _dataset([
        ("a", "b", 1.0, 1.0),     # both trained
        ("a", "x", 1.0, 1.0),     # mixed
        ("y", "a", 1.0, 1.0),     # mixed, reversed order
        ("x", "y", 1.0, 1.0),     # both imputed
        ("a", "zz", 1.0, 1.0),    # zz unknown -> skipped
    ])
    split = classify_pairs(ds, {"a", "b"}, {"x", "y"})
    assert [r.term2 for r in split.subsets["trained/trained"]] == ["b"]
    assert len(split.subsets["imputed/trained"]) == 2
    assert len(split.subsets["imputed/imputed"]) == 1
    assert [r.term2 for r in split.skipped] == ["zz"]


def test_classify_pairs_partition_identity_random():
    rng = np.random.default_rng(12)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(200):
        n = int(rng.integers(1, 20))
        rows = []
        seen = set()
        while len(rows) < n:
            t1, t2 = rng.choice(vocab, 2, replace=False)
            if frozenset((t1, t2)) in seen:
                continue
            seen.add(frozenset((t1, t2)))
            rows.append((t1, t2, 1.0, 2.0))
        ds = _dataset(rows)
        members = list(rng.permutation(vocab))
        cut1, cut2 = sorted(rng.integers(0, len(vocab) + 1, 2))
        split = classify_pairs(ds, set(members[:cut1]), set(members[cut1:cut2]))
        total = sum(len(v) for v in split.subsets.values()) + len(split.skipped)
        assert total == len(ds)


def test_classify_pairs_rejects_overlapping_vocabs():
    with pytest.raises(ValueError, match="overlap"):
        classify_pairs(_dataset([("a", "b", 1, 1)]), {"a"}, {"a"})


def test_cosine_basics():
    assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_cosine_scaling_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.standard_normal(6)
        c = float(rng.uniform(0.1, 10))
        assert abs(cosine_similarity(u, c * u) - 1.0) < 1e-12
        assert abs(cosine_similarity(u, -c * u) + 1.0) < 1e-12


def test_pearson_known_values():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(xs, 2 * xs + 3) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)
    assert pearson(xs, np.array([1.0, 3.0, 2.0, 4.0])) == pytest.approx(0.8, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        xs = rng.standard_normal(20)
        ys = rng.standard_normal(20)
        base = pearson(xs, ys)
        a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-10, 10))
        assert abs(pearson(a * xs + b, ys) - base) < 1e-12
        assert abs(pearson(xs, a * ys + b) - base) < 1e-12


def test_pearson_rejects_constant_input():
    with pytest.raises(ValueError, match="constant"):
        pearson(np.ones(5), np.arange(5.0))
    # the mean of three 0.1s rounds, so the centred values are not all 0
    with pytest.raises(ValueError, match="constant"):
        pearson(np.full(3, 0.1), np.arange(3.0))


def test_bootstrap_constant_scores_not_evaluable():
    emb = _toy_embedding()
    ds = _dataset([("w0", "w1", 0.1, 100.0), ("w0", "w2", 0.1, 200.0), ("w1", "w2", 0.1, 400.0)])
    split = classify_pairs(ds, {"w0", "w1", "w2"}, set())
    report = bootstrap_eval(emb, split, n_resamples=20, seed=0)
    cell = report.scores["trained/trained"]["similarity"]
    assert (cell.n, cell.r, cell.boot_mean) == (3, None, None)
    assert cell.reason == "pearson is undefined for constant input"
    assert report.scores["trained/trained"]["relatedness"].r is not None


def _toy_embedding() -> EmbeddingMatrix:
    rng = np.random.default_rng(0)
    return EmbeddingMatrix([f"w{i}" for i in range(8)], rng.standard_normal((8, 4)))


def test_constant_cosine_subset_leaves_other_cells_unchanged():
    # imputed/imputed pairs join orthogonal unit vectors, so every cosine is 0: both
    # cells carry a reason, and the other subsets score as they do without it
    rng = np.random.default_rng(6)
    words = [f"w{i}" for i in range(8)]
    vectors = np.vstack([rng.standard_normal((4, 4)), np.eye(4)])
    emb = EmbeddingMatrix(words, vectors)
    rows = [(words[i], words[j], float(rng.uniform(0, 1600)), float(rng.uniform(0, 1600)))
            for i in range(8) for j in range(i + 1, 8)]
    split = classify_pairs(_dataset(rows), set(words[:4]), set(words[4:]))
    assert 2 <= len(split.subsets["imputed/imputed"]) < len(split.subsets["imputed/trained"])
    report = bootstrap_eval(emb, split, n_resamples=100, seed=3)
    for score_type in SCORE_TYPES:
        cell = report.scores["imputed/imputed"][score_type]
        assert (cell.n, cell.r, cell.boot_mean, cell.boot_std) == (6, None, None, None)
        assert cell.reason == "pearson is undefined for constant input"
    split.subsets["imputed/imputed"] = []
    without = bootstrap_eval(emb, split, n_resamples=100, seed=3)
    for subset in ("trained/trained", "imputed/trained"):
        assert report.scores[subset] == without.scores[subset]
        assert all(cell.r is not None for cell in report.scores[subset].values())


def test_bootstrap_reproducible_and_reports_n():
    rng = np.random.default_rng(33)
    emb = _toy_embedding()
    rows = []
    for i in range(8):
        for j in range(i + 1, 8):
            rows.append((f"w{i}", f"w{j}", float(rng.uniform(0, 1600)), float(rng.uniform(0, 1600))))
    ds = _dataset(rows)
    split = classify_pairs(ds, {f"w{i}" for i in range(4)}, {f"w{i}" for i in range(4, 8)})
    r1 = bootstrap_eval(emb, split, n_resamples=200, seed=5)
    r2 = bootstrap_eval(emb, split, n_resamples=200, seed=5)
    assert r1.to_json() == r2.to_json()
    cell = r1.scores["trained/trained"]["similarity"]
    assert cell.n == 6
    assert cell.r is not None and -1 <= cell.r <= 1
    assert json.loads(r1.to_json())["subsets"]["imputed/imputed"]["relatedness"]["n"] == 6


def test_bootstrap_matches_per_score_type_oracle():
    emb = _toy_embedding()
    # trained/trained: similarity takes two values, so some resamples are constant
    # in similarity alone; imputed/imputed: scores spread over the range
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rows = [(f"w{i}", f"w{j}", 200.0 if k == 0 else 100.0, 150.0 * k)
            for k, (i, j) in enumerate(pairs)]
    rng = np.random.default_rng(8)
    rows += [(f"w{i + 4}", f"w{j + 4}", float(rng.uniform(0, 1600)), float(rng.uniform(0, 1600)))
             for i, j in pairs]
    trained, imputed = {f"w{i}" for i in range(4)}, {f"w{i}" for i in range(4, 8)}
    split = classify_pairs(_dataset(rows), trained, imputed)
    report = bootstrap_eval(emb, split, n_resamples=300, seed=4)
    degenerate = {}
    for subset in ("trained/trained", "imputed/imputed"):
        records = split.subsets[subset]
        cosines = np.array([cosine_similarity(emb.row(r.term1), emb.row(r.term2)) for r in records])
        for score_type in SCORE_TYPES:
            human = np.array([getattr(r, score_type) for r in records])
            point, values, degenerate[subset, score_type] = per_score_bootstrap(
                cosines, human, 300, 4)
            cell = report.scores[subset][score_type]
            assert cell.degenerate_resamples == degenerate[subset, score_type]
            assert cell.r == pytest.approx(point, abs=1e-12)
            assert cell.boot_mean == pytest.approx(np.mean(values), abs=1e-12)
            assert cell.boot_std == pytest.approx(np.std(values), abs=1e-12)
    assert degenerate["trained/trained", "similarity"] > 0
    assert degenerate["trained/trained", "relatedness"] == 0
    assert degenerate["imputed/imputed", "similarity"] == 0


def _tied_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Spread, tied or nearly equal values, so constant and near-constant resamples occur."""
    kind = rng.integers(6)
    if kind == 0:
        return rng.uniform(0, 1600, n)
    if kind == 1:
        return rng.choice([100.0, 300.0, 700.0], n)
    if kind == 2:  # equal to 12 digits
        return 0.5 + 1e-12 * rng.integers(0, 3, n)
    if kind == 3:  # one value that most pairs share, and a few more near it
        return np.where(rng.random(n) < 0.8, 0.25, 0.25 + 1e-9 * rng.random(n))
    if kind == 4:  # a far outlier: a resample without it has a mean far from the sample's
        return np.where(rng.random(n) < 0.9, 0.1 * rng.random(n), 1000.0)
    return rng.choice([1600.0, np.nextafter(1600.0, 0.0), 0.0], n)


def test_bulk_bootstrap_matches_pearson_resample_by_resample():
    rng = np.random.default_rng(12)
    degenerate = 0
    for _ in range(60):
        samples = [np.array([_tied_values(rng, n) for _ in range(3)])
                   for n in rng.integers(2, 41, size=rng.integers(1, 4))]
        n_resamples, seed = int(rng.integers(1, 40)), int(rng.integers(100))
        for values, r in zip(samples, _bootstrap_r(samples, n_resamples, seed)):
            n = values.shape[1]
            for i in range(n_resamples):
                idx = np.random.default_rng([seed, i]).integers(0, n, size=n)
                for t in (1, 2):
                    try:
                        want = pearson(values[0, idx], values[t, idx])
                    except ValueError:
                        degenerate += 1
                        assert np.isnan(r[t - 1, i])
                    else:
                        assert abs(r[t - 1, i] - want) <= 1e-12
    assert degenerate > 0


def test_bootstrap_memory_does_not_grow_with_resamples():
    # resamples are scored a chunk at a time, so from 500 to 4,000 resamples the traced
    # peak grows by the r values kept for the mean and std (8 bytes per resample and
    # evaluable cell), and by at most one more chunk
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(30)]
    emb = EmbeddingMatrix(words, rng.standard_normal((30, 4)))
    rows = [(words[i], words[j], float(rng.uniform(0, 1600)), float(rng.uniform(0, 1600)))
            for i in range(30) for j in range(i + 1, 30)]
    split = classify_pairs(_dataset(rows), set(words[:15]), set(words[15:]))
    peaks = {}
    for n_resamples in (500, 4000):
        tracemalloc.start()
        bootstrap_eval(emb, split, n_resamples=n_resamples, seed=0)
        peaks[n_resamples] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    cells = len(split.subsets) * len(SCORE_TYPES)
    assert peaks[4000] - peaks[500] <= 8 * 3500 * cells + _CHUNK_BYTES


def test_bootstrap_two_point_subset_flagged_low_n():
    emb = _toy_embedding()
    ds = _dataset([("w0", "w1", 100.0, 100.0), ("w2", "w3", 900.0, 900.0)])
    split = classify_pairs(ds, {"w0", "w1", "w2", "w3"}, {"w7"})
    report = bootstrap_eval(emb, split, n_resamples=64, seed=2)
    cell = report.scores["trained/trained"]["similarity"]
    assert cell.n == 2
    assert cell.low_n
    # resamples drawing one record twice are degenerate (constant input)
    assert cell.degenerate_resamples > 0
    if cell.boot_mean is not None:
        assert abs(abs(cell.boot_mean) - 1.0) < 1e-12  # 2-point correlations are +-1


def test_bootstrap_saturated_case():
    # cosines equal to the human order: every resample correlates perfectly
    emb = EmbeddingMatrix(
        ["a", "b", "c", "d"],
        np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 0.4], [1.0, 1.0]]),
    )
    rows = [
        ("a", "b", 100.0, 100.0),
        ("a", "c", 200.0, 200.0),
        ("a", "d", 300.0, 300.0),
    ]
    human = []
    for t1, t2, *_ in rows:
        human.append(cosine_similarity(emb.row(t1), emb.row(t2)))
    scale = 1500 / max(human)
    rows = [(t1, t2, h * scale, h * scale) for (t1, t2, *_), h in zip(rows, human)]
    split = classify_pairs(_dataset(rows), {"a", "b", "c", "d"}, set())
    report = bootstrap_eval(emb, split, n_resamples=100, seed=1)
    cell = report.scores["trained/trained"]["similarity"]
    assert cell.r == pytest.approx(1.0, abs=1e-9)
    assert cell.boot_mean == pytest.approx(1.0, abs=1e-9)
    assert cell.boot_std < 1e-9


def test_bootstrap_missing_vectors_counted():
    emb = _toy_embedding()
    ds = _dataset([("w0", "nope", 10.0, 10.0), ("w0", "w1", 20.0, 20.0)])
    split = classify_pairs(ds, {"w0", "w1", "nope"}, set())
    report = bootstrap_eval(emb, split, n_resamples=10, seed=0)
    assert report.missing_vector_pairs["trained/trained"] == 1
    assert report.scores["trained/trained"]["similarity"].n == 1
    assert report.scores["trained/trained"]["similarity"].r is None


def test_evaluation_does_not_mutate_embedding():
    emb = _toy_embedding()
    before = emb.vectors.tobytes()
    ds = _dataset([("w0", "w1", 10.0, 10.0), ("w2", "w3", 20.0, 20.0), ("w0", "w2", 30.0, 30.0)])
    split = classify_pairs(ds, {f"w{i}" for i in range(8)}, set())
    bootstrap_eval(emb, split, n_resamples=50, seed=3)
    assert emb.vectors.tobytes() == before
