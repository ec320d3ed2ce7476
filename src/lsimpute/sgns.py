"""Skip-gram with negative sampling, trained with plain numpy.

One trainer covers both inputs: random-walk corpora from a graph and text
corpora. Updates are applied center by center, with each center's contexts
and negatives handled in one vectorized batch; that keeps the usual SGD
self-limiting behavior while avoiding a per-pair Python loop.

Conventions follow the word2vec lineage: negative-sampling noise is the
unigram distribution raised to 0.75, frequent tokens are down-sampled with
threshold `sample`, the effective window per center is uniform on
[1, window], and the learning rate decays linearly from alpha to alpha/10
over the whole run.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .embeddings import EmbeddingMatrix

logger = logging.getLogger(__name__)


@dataclass
class SgnsConfig:
    dim: int = 200
    epochs: int = 10
    negative: int = 10
    alpha: float = 0.05
    sample: float = 1e-4  # subsampling threshold; 0 disables
    window: int = 30
    min_count: int = 5
    seed: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.negative < 1:
            raise ValueError(f"negative must be >= 1, got {self.negative}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not math.isfinite(self.sample):
            raise ValueError(f"sample must be finite, got {self.sample}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class SgnsResult:
    embeddings: EmbeddingMatrix  # input vectors over the retained vocabulary
    epoch_loss: list[float]      # mean negative log-likelihood per trained pair


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    # log sigma(x) = -log(1 + exp(-x)), stable for large |x|
    return -np.logaddexp(0.0, -x)


def sgns_pair_gradient(
    center: np.ndarray,
    context: np.ndarray,
    negatives: np.ndarray,
    label: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradient of the log-likelihood of one training example.

    The objective is label*log sigma(c.o) + (1-label)*log sigma(-c.o)
    + sum_i log sigma(-c.n_i). Returns gradients with respect to the center
    vector, the context vector, and each negative vector (ascent directions;
    the SGD update adds alpha times these).
    """
    from scipy.special import expit  # loaded on first use, not at `import lsimpute`

    center = np.asarray(center, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    negatives = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    g_pair = label - expit(center @ context)
    g_neg = -expit(negatives @ center)  # (k,)
    grad_center = g_pair * context + g_neg @ negatives
    grad_context = g_pair * center
    grad_negatives = g_neg[:, None] * center[None, :]
    return grad_center, grad_context, grad_negatives


def build_vocabulary(corpus: Sequence[list[str]], min_count: int) -> tuple[list[str], np.ndarray]:
    """Retained tokens sorted by descending count (ties by token), with counts."""
    counts = Counter()
    for sentence in corpus:
        counts.update(sentence)
    kept = sorted(
        ((tok, c) for tok, c in counts.items() if c >= min_count),
        key=lambda tc: (-tc[1], tc[0]),
    )
    if not kept:
        raise ValueError(f"vocabulary is empty after min_count={min_count}")
    tokens = [t for t, _ in kept]
    return tokens, np.array([c for _, c in kept], dtype=np.float64)


def _noise_cumulative(counts: np.ndarray, power: float = 0.75) -> np.ndarray:
    weights = counts**power
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0  # cumsum can land a hair under 1; draws must never index past the end
    return cum


def _keep_probabilities(counts: np.ndarray, sample: float) -> np.ndarray:
    if sample <= 0:
        return np.ones_like(counts)
    freq = counts / counts.sum()
    keep = (np.sqrt(freq / sample) + 1.0) * (sample / freq)
    return np.minimum(keep, 1.0)


def _train_sentence(
    ids: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    noise_cum: np.ndarray,
    keep_prob: np.ndarray,
    negative: int,
    window: int,
    alpha: float,
    rng: np.random.Generator,
    sigmoid: Callable[[np.ndarray], np.ndarray],
    track_loss: bool = False,
) -> tuple[float, int]:
    """SGD over one sentence, one batched update per center; returns (loss sum, pairs)."""
    if len(ids) > 0:
        ids = ids[rng.random(len(ids)) < keep_prob[ids]]
    n = len(ids)
    if n < 2:
        return 0.0, 0

    # fix all pairs and negative draws up front; updates still run center by
    # center against current parameters, so SGD keeps its self-limiting step
    spans = rng.integers(1, window + 1, size=n)
    pos = np.arange(n)
    lo = np.maximum(pos - spans, 0)
    reach = np.minimum(pos + spans + 1, n) - lo  # window slots, the center included
    # positions lo..hi-1 of every center, laid end to end, minus the center
    # itself: left contexts then right ones, each in sentence order
    slot = np.arange(int(reach.sum())) + np.repeat(lo - (np.cumsum(reach) - reach), reach)
    contexts_all = ids[slot[slot != np.repeat(pos, reach)]]
    total = len(contexts_all)  # n >= 2 and spans >= 1: every center has a context

    negs = noise_cum.searchsorted(rng.random((total, negative)))
    bad = negs == contexts_all[:, None]
    for _ in range(16):  # resample collisions; give up for degenerate vocabularies
        if not bad.any():
            break
        negs[bad] = noise_cum.searchsorted(rng.random(int(bad.sum())))
        bad = negs == contexts_all[:, None]
    # outputs per context: the positive first, then its negatives
    out_all = np.concatenate([contexts_all[:, None], negs], axis=1).reshape(-1)

    width = negative + 1
    dim = w_out.shape[1]
    # w_out is scattered through its flat view (a view because train_sgns_full
    # makes it C-contiguous): one-dimensional ufunc.at is several times faster
    # than the row form and adds to each entry in the same order
    w_out_flat = w_out.reshape(-1)
    out_base = out_all * dim
    columns = np.arange(dim)
    labels = np.zeros(len(out_all))
    labels[::width] = 1.0
    ends = (np.cumsum(reach - 1) * width).tolist()
    loss_sum = 0.0
    start = 0
    for center, end in zip(ids.tolist(), ends):
        out_idx = out_all[start:end]
        u = w_out.take(out_idx, axis=0)  # (count*(k+1), d), a gathered copy
        v = w_in[center]                 # a view: updated in place below
        scores = u.dot(v)
        if track_loss:
            signed = -scores
            signed[::width] = scores[::width]
            loss_sum -= float(_log_sigmoid(signed).sum())
        # g = alpha * (label - sigmoid): labels are 1 at each positive slot, else 0
        g = labels[start:end] - sigmoid(scores)
        g *= alpha
        # both gradients use pre-update values: u is a copy, v changes last
        flat_idx = out_base[start:end, None] + columns
        # the outer product as a rank-1 matmul: each entry is the one product
        # g_i * v_j, and it skips the broadcasting machinery
        np.add.at(w_out_flat, flat_idx.reshape(-1), g[:, None].dot(v[None, :]).reshape(-1))
        v += g.dot(u)
        start = end
    return loss_sum, total


def train_sgns_full(
    corpus: Sequence[list[str]], cfg: SgnsConfig, track_loss: bool = True
) -> SgnsResult:
    """Train and return both the embedding matrix and the per-epoch loss curve."""
    from scipy.special import expit  # loaded on first use, not at `import lsimpute`

    tokens, counts = build_vocabulary(corpus, cfg.min_count)
    index = {t: i for i, t in enumerate(tokens)}
    sentences = [
        np.array([index[t] for t in sent if t in index], dtype=np.int64)
        for sent in corpus
    ]
    sentences = [s for s in sentences if len(s) > 0]
    if not sentences:
        raise ValueError("corpus is empty")

    noise_cum = _noise_cumulative(counts)
    keep_prob = _keep_probabilities(counts, cfg.sample)

    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((len(tokens), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(tokens), cfg.dim))

    total_sentences = cfg.epochs * len(sentences)
    alpha_min = cfg.alpha / 10.0
    epoch_loss: list[float] = []

    processed = 0
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        pair_count = 0
        for ids in sentences:
            alpha = cfg.alpha - (cfg.alpha - alpha_min) * (processed / total_sentences)
            loss, pairs = _train_sentence(
                ids, w_in, w_out, noise_cum, keep_prob,
                cfg.negative, cfg.window, alpha, rng, expit, track_loss,
            )
            loss_sum += loss
            pair_count += pairs
            processed += 1
        if track_loss:
            epoch_loss.append(loss_sum / max(pair_count, 1))
            logger.debug("epoch %d: mean pair loss %.6f", epoch, epoch_loss[-1])

    return SgnsResult(EmbeddingMatrix(tokens, w_in), epoch_loss)


def train_sgns(corpus: Sequence[list[str]], cfg: SgnsConfig) -> EmbeddingMatrix:
    """Train skip-gram embeddings; returns the input-vector matrix."""
    return train_sgns_full(corpus, cfg, track_loss=False).embeddings
