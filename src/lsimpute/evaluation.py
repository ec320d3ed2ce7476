"""Word-pair similarity evaluation with bootstrapped Pearson correlations.

Datasets are CSV files of term pairs scored by human annotators for both
similarity and relatedness (scores 0 to 1600). Pairs are classified by the
trained/imputed status of their terms and each subset is scored by the
Pearson correlation between embedding cosine similarities and the human
scores, with bootstrap resampling of the pair list for uncertainty.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix, normalize_label

logger = logging.getLogger(__name__)

SCORE_MIN, SCORE_MAX = 0.0, 1600.0
LOW_N_THRESHOLD = 10
SCORE_TYPES = ("similarity", "relatedness")
SUBSET_NAMES = ("trained/trained", "imputed/trained", "imputed/imputed")


class DatasetFormatError(ValueError):
    pass


@dataclass
class EvaluateConfig:
    resamples: int = 1000  # bootstrap resamples per subset
    seed: int = 0          # bootstrap RNG seed
    split_seed: int = 1    # seed of the trained/imputed vocabulary split

    def __post_init__(self) -> None:
        for key, least in (("resamples", 1), ("seed", 0), ("split_seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")


@dataclass(frozen=True)
class WordPair:
    term1: str
    term2: str
    similarity: float
    relatedness: float


@dataclass
class WordPairDataset:
    records: list[WordPair]

    def __len__(self) -> int:
        return len(self.records)

    def terms(self) -> set[str]:
        out: set[str] = set()
        for r in self.records:
            out.add(r.term1)
            out.add(r.term2)
        return out


def load_wordpair_dataset(path: str) -> WordPairDataset:
    """CSV with header Term1,Term2,Similarity,Relatedness; terms get normalized."""
    records: list[WordPair] = []
    seen: set[frozenset[str]] = set()
    with open(path, encoding="utf-8-sig", newline="") as fh:  # a leading BOM is dropped
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:4]] != [
            "term1", "term2", "similarity", "relatedness",
        ]:
            raise DatasetFormatError(
                f"{path}:1: expected header Term1,Term2,Similarity,Relatedness"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) < 4:
                raise DatasetFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            t1 = normalize_label(row[0].strip())
            t2 = normalize_label(row[1].strip())
            if not t1 or not t2:
                raise DatasetFormatError(f"{path}:{lineno}: empty term")
            try:
                sim, rel = float(row[2]), float(row[3])
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric score") from None
            for score in (sim, rel):
                if not (SCORE_MIN <= score <= SCORE_MAX):
                    raise DatasetFormatError(
                        f"{path}:{lineno}: score {score} outside [{SCORE_MIN}, {SCORE_MAX}]"
                    )
            key = frozenset((t1, t2))
            if key in seen:
                raise DatasetFormatError(f"{path}:{lineno}: duplicate pair {t1!r}, {t2!r}")
            seen.add(key)
            if t1 == t2:
                logger.info("pair with identical normalized terms kept: %r", t1)
            records.append(WordPair(t1, t2, sim, rel))
    return WordPairDataset(records)


def split_vocab(dataset_terms: set[str], seed: int) -> tuple[set[str], set[str]]:
    """Seeded uniform partition into two groups whose sizes differ by at most 1."""
    ordered = sorted(dataset_terms)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    half = (len(ordered) + 1) // 2
    trained = {ordered[i] for i in perm[:half]}
    imputed = {ordered[i] for i in perm[half:]}
    return trained, imputed


@dataclass
class PairSplit:
    subsets: dict[str, list[WordPair]]  # keyed by SUBSET_NAMES
    skipped: list[WordPair] = field(default_factory=list)


def classify_pairs(
    dataset: WordPairDataset, trained_vocab: set[str], imputed_vocab: set[str]
) -> PairSplit:
    """Assign each pair by the membership of its two terms; rest go to skipped."""
    overlap = trained_vocab & imputed_vocab
    if overlap:
        raise ValueError(f"vocabulary sets overlap on {len(overlap)} terms")
    split = PairSplit({name: [] for name in SUBSET_NAMES})
    for rec in dataset.records:
        in_t = (rec.term1 in trained_vocab, rec.term2 in trained_vocab)
        in_i = (rec.term1 in imputed_vocab, rec.term2 in imputed_vocab)
        if (in_t[0] or in_i[0]) and (in_t[1] or in_i[1]):
            if all(in_t):
                split.subsets["trained/trained"].append(rec)
            elif all(in_i):
                split.subsets["imputed/imputed"].append(rec)
            else:
                split.subsets["imputed/trained"].append(rec)
        else:
            split.skipped.append(rec)
    return split


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return float(u @ v / (nu * nv))


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-d arrays")
    if len(xs) < 2:
        raise ValueError(f"pearson needs at least 2 points, got {len(xs)}")
    # a constant input whose mean rounds leaves a centred sum of squares above 0
    if xs.min() == xs.max() or ys.min() == ys.max():
        raise ValueError("pearson is undefined for constant input")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    return float(dx @ dy / np.sqrt(float(dx @ dx) * float(dy @ dy)))


@dataclass
class SubsetScore:
    n: int
    r: float | None
    boot_mean: float | None
    boot_std: float | None
    low_n: bool
    degenerate_resamples: int = 0
    reason: str | None = None  # why not evaluable, when r is None


@dataclass
class EvalReport:
    scores: dict[str, dict[str, SubsetScore]]  # subset -> score_type -> result
    skipped_pairs: int
    missing_vector_pairs: dict[str, int]       # per subset, pairs lacking a vector

    def evaluable(self) -> bool:
        return any(
            cell.r is not None
            for per_subset in self.scores.values()
            for cell in per_subset.values()
        )

    def to_json(self) -> str:
        payload = asdict(self)
        payload["subsets"] = payload.pop("scores")
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"{'subset':<18} {'score':<12} {'n':>5} {'r':>8} {'boot_mean':>10} {'boot_std':>9}"]
        for subset, per_subset in self.scores.items():
            for score, cell in per_subset.items():
                if cell.r is None:
                    lines.append(f"{subset:<18} {score:<12} {cell.n:>5} {'-':>8} "
                                 f"{'-':>10} {'-':>9}  ({cell.reason})")
                else:
                    flag = " low-n" if cell.low_n else ""
                    lines.append(
                        f"{subset:<18} {score:<12} {cell.n:>5} {cell.r:>8.4f} "
                        f"{cell.boot_mean:>10.4f} {cell.boot_std:>9.4f}{flag}"
                    )
        lines.append(f"skipped pairs (term in neither vocabulary): {self.skipped_pairs}")
        return "\n".join(lines)


# the count matrix of one chunk of resamples holds about this many bytes
_CHUNK_BYTES = 1 << 17
# pearson rescores a resample whose centred sum of squares on either side is at most
# _CANCELLATION of its sum about the full-sample mean (the sums lost digits) plus
# _ROUNDING of n·max(value²) (a spread near the values' rounding, where pearson's own
# centring decides the last digits); a constant side is always among them
_CANCELLATION, _ROUNDING = 1e-2, 1e-12


def _resample_r(
    values: np.ndarray, columns: np.ndarray, floors: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """The (rows, score types) r of values[0] (cosines) against each further row of
    `values` (human scores), on each row of `draws`; NaN where pearson raises.

    One count matrix times `columns` gives every resample's sums (see `_bootstrap_r`).
    """
    (rows, n), k = draws.shape, len(values)
    counts = np.bincount((draws + n * np.arange(rows)[:, None]).ravel(), minlength=rows * n)
    sums = counts.reshape(rows, n) @ columns
    s, ss, sxy = sums[:, :k], sums[:, k:2 * k], sums[:, 2 * k:]
    centred = ss - s * s / n  # centred sums of squares, the cosines' first
    r = (sxy - s[:, :1] * s[:, 1:] / n) / np.sqrt(centred[:, :1] * centred[:, 1:])
    lost = centred <= _CANCELLATION * ss + floors
    for row, t in np.argwhere(lost[:, :1] | lost[:, 1:]):
        try:
            r[row, t] = pearson(values[0, draws[row]], values[t + 1, draws[row]])
        except ValueError:
            r[row, t] = np.nan
    return r


def _bootstrap_r(samples: list[np.ndarray], n_resamples: int, seed: int) -> list[np.ndarray]:
    """For each (1 + score types, n) array of cosines and human scores, the
    (score types, n_resamples) r of every resample, NaN where degenerate.

    Resample i of a sample of size n is default_rng([seed, i]).integers(0, n,
    size=n) for every sample: the generator is built once per i, and its
    state restored before each sample. Resamples are drawn and scored a chunk
    at a time. A sample's sums are taken over its values centred on their
    full-sample means: every centred row d, then d², then d_cosines · d per
    score type.
    """
    if not samples:
        return []
    sizes = [values.shape[1] for values in samples]
    prepared = []
    for values in samples:
        d = values - values.mean(axis=1, keepdims=True)
        floors = _ROUNDING * values.shape[1] * np.square(values).max(axis=1)
        prepared.append((values, np.vstack([d, d * d, d[0] * d[1:]]).T, floors))
    out = [np.empty((len(values) - 1, n_resamples)) for values in samples]
    rows = max(1, _CHUNK_BYTES // (8 * max(sizes)))
    for start in range(0, n_resamples, rows):
        stop = min(start + rows, n_resamples)
        chunk = [np.empty((stop - start, n), dtype=np.int64) for n in sizes]
        for i in range(start, stop):
            rng = np.random.default_rng([seed, i])
            fresh = rng.bit_generator.state
            for draws, n in zip(chunk, sizes):
                rng.bit_generator.state = fresh
                draws[i - start] = rng.integers(0, n, size=n)
        with np.errstate(invalid="ignore", divide="ignore"):  # at rows pearson rescores
            for r, draws, args in zip(out, chunk, prepared):
                r[:, start:stop] = _resample_r(*args, draws).T
    return out


def bootstrap_eval(
    embedding: EmbeddingMatrix, split: PairSplit, n_resamples: int, seed: int
) -> EvalReport:
    """Point Pearson r per subset and score type, plus bootstrap mean and std.

    A cell takes its r from `pearson`, or the reason r is undefined, and its
    mean, std and degenerate count from its subset's resamples, which
    `_bootstrap_r` draws from the (seed, i) streams for every subset of at
    least 2 pairs. Pairs with a term missing from the embedding are dropped
    and counted per subset.
    """
    if n_resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {n_resamples}")
    samples: dict[str, np.ndarray] = {}  # cosines, then each score type's human scores
    missing: dict[str, int] = {}
    for subset, records in split.subsets.items():
        usable = [r for r in records if r.term1 in embedding and r.term2 in embedding]
        missing[subset] = len(records) - len(usable)
        if missing[subset]:
            logger.info("%s: %d pairs lack an embedding vector", subset, missing[subset])
        cosines = [cosine_similarity(embedding.row(r.term1), embedding.row(r.term2))
                   for r in usable]
        samples[subset] = np.array(
            [cosines, *([getattr(r, t) for r in usable] for t in SCORE_TYPES)])
    booted = [subset for subset, values in samples.items() if values.shape[1] >= 2]
    resampled = dict(zip(booted, _bootstrap_r([samples[s] for s in booted], n_resamples, seed)))
    scores: dict[str, dict[str, SubsetScore]] = {}
    for subset, values in samples.items():
        n = values.shape[1]
        scores[subset] = {}
        for t, score_type in enumerate(SCORE_TYPES):
            try:
                if n < 2:
                    raise ValueError(f"only {n} evaluable pairs")
                point = pearson(values[0], values[t + 1])
            except ValueError as exc:
                scores[subset][score_type] = SubsetScore(n, None, None, None, n < LOW_N_THRESHOLD,
                                                         reason=str(exc))
                continue
            r = resampled[subset][t]
            r = r[~np.isnan(r)]
            scores[subset][score_type] = SubsetScore(
                n, point, float(r.mean()) if r.size else None, float(r.std()) if r.size else None,
                n < LOW_N_THRESHOLD, degenerate_resamples=n_resamples - r.size)
    return EvalReport(scores, len(split.skipped), missing)
