"""Skip-gram with negative sampling, trained with plain numpy.

One trainer covers both inputs: random-walk corpora from a graph and text
corpora. Updates are applied center by center, so the usual SGD
self-limiting behavior holds: every gradient of a center is taken at the
values from before that center. Within a center the work is vectorized over
its distinct output rows: a row drawn m times, p of them as the positive,
gets the summed gradient alpha * (p - m * sigmoid(u.v)) in one plain
scatter.

Sentences are trained in batches of consecutive whole sentences holding at
most one run of tokens (a longer sentence is a batch of its own). A batch
draws from the generator, in this order:

1. one keep flag per token of the batch, in corpus order (a token is kept
   when its uniform draw is below its keep probability);
2. one window span per kept token, uniform on [1, window];
3. per run of at most `run_centers` kept tokens: `negative` noise draws per
   (center, context) pair, pairs in center order and each center's contexts
   left then right in sentence order; then up to 16 rounds that redraw the
   negatives equal to their pair's positive.

A run is what bounds the temporaries: `_RUN_SLOTS` output slots (pairs times
negative + 1) at the widest windows, each slot-sized array within 512 KB.
Contexts reach across a run boundary inside a sentence. The loss of a run
comes from the scores stored per distinct row, so tracking it is cheap.

Conventions follow the word2vec lineage: negative-sampling noise is the
unigram distribution raised to 0.75, frequent tokens are down-sampled with
threshold `sample`, the effective window per center is uniform on
[1, window], and the learning rate decays linearly from alpha to alpha/10
over the whole run, one step per sentence.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

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
        if not 0 <= self.sample < math.inf:
            raise ValueError(f"sample must be finite and >= 0, got {self.sample}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {self.min_count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SgnsResult:
    embeddings: EmbeddingMatrix  # input vectors over the retained vocabulary
    epoch_loss: list[float]      # mean negative log-likelihood per trained pair
    tokens_per_s: float          # corpus tokens x epochs over the whole call's wall time


def _noise_cumulative(counts: np.ndarray) -> np.ndarray:
    weights = counts**0.75
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0  # cumsum can land a hair under 1; draws must never index past the end
    return cum


def _keep_probabilities(counts: np.ndarray, sample: float) -> np.ndarray:
    if sample <= 0:
        return np.ones_like(counts)
    freq = counts / counts.sum()
    keep = (np.sqrt(freq / sample) + 1.0) * (sample / freq)
    return np.minimum(keep, 1.0)


# Output slots (pairs x (negative + 1)) in one run of centers: each slot-sized
# int64 or float64 temporary of a run stays within 512 KB, however long the
# sentences are. On node2vec-hubs this raised peak RSS by 2.0 MB over the
# per-sentence trainer; half of it trained about 5 % slower.
_RUN_SLOTS = 1 << 16


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive segments of the given sizes, and the total."""
    return np.concatenate([[0], np.cumsum(counts)])


def _corpus_ids(
    corpus: Sequence[list[str]], min_count: int
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The vocabulary, tokens of at least min_count sorted by descending count (ties by
    token), their counts, and the corpus as one id array with sentence lengths; tokens
    under min_count are dropped, and then sentences left empty."""
    index: dict[str, int] = {}  # first-seen ids
    lengths = np.fromiter(map(len, corpus), dtype=np.int64, count=len(corpus))
    ids = np.fromiter((index.setdefault(t, len(index)) for sent in corpus for t in sent),
                      dtype=np.int64, count=int(lengths.sum()))
    seen = list(index)
    count = np.bincount(ids, minlength=len(seen))
    counts = count.tolist()
    kept = sorted((i for i, c in enumerate(counts) if c >= min_count),
                  key=lambda i: (-counts[i], seen[i]))
    if not kept:
        raise ValueError(f"vocabulary is empty after min_count={min_count}")
    rank = np.full(len(seen), -1)  # first-seen id -> vocabulary id
    rank[kept] = np.arange(len(kept))
    ids = rank[ids]
    known = ids >= 0
    lengths = np.diff(_offsets(known)[_offsets(lengths)])
    return [seen[i] for i in kept], count[kept].astype(np.float64), ids[known], lengths[lengths > 0]


def _train_batch(
    ids: np.ndarray,
    lengths: np.ndarray,
    alphas: np.ndarray,
    w_in: np.ndarray,
    w_out: np.ndarray,
    noise_cum: np.ndarray,
    keep_prob: np.ndarray,
    negative: int,
    window: int,
    run_centers: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """SGD over a batch of sentences laid end to end in `ids`; returns (loss sum, pairs).

    Sentence i holds lengths[i] tokens and trains at rate alphas[i]. Kept
    positions are trained in runs of at most `run_centers` centers; contexts
    reach across a run boundary inside a sentence.
    """
    from scipy.special import expit  # loaded on first use, not at `import lsimpute`

    keep = rng.random(len(ids)) < keep_prob[ids]
    kept = ids[keep]
    bounds = _offsets(keep)[_offsets(lengths)]  # each sentence's offset among kept tokens
    spans = rng.integers(1, window + 1, size=len(kept))
    vocab = len(w_out)
    loss_sum = 0.0
    total = 0
    for r0 in range(0, len(kept), run_centers):
        pos = np.arange(r0, min(r0 + run_centers, len(kept)))
        sent = bounds.searchsorted(pos, side="right") - 1
        lo = np.maximum(pos - spans[pos], bounds[sent])
        reach = np.minimum(pos + spans[pos] + 1, bounds[sent + 1]) - lo  # the center included
        # positions lo..hi-1 of every center, laid end to end, minus the center
        # itself: left contexts then right ones, each in sentence order
        slot = np.arange(int(reach.sum())) + np.repeat(lo - (np.cumsum(reach) - reach), reach)
        pair_center = np.repeat(pos, reach)
        is_context = slot != pair_center
        n_pairs = int(is_context.sum())

        # one output slot per column: the positive, then its negatives
        keys = np.empty((n_pairs, negative + 1), dtype=np.int64)
        keys[:, 0] = kept[slot[is_context]]
        keys[:, 1:] = noise_cum.searchsorted(rng.random((n_pairs, negative)))
        bad = keys[:, 1:] == keys[:, :1]
        for _ in range(16):  # resample collisions; give up for degenerate vocabularies
            if not bad.any():
                break
            keys[:, 1:][bad] = noise_cum.searchsorted(rng.random(int(bad.sum())))
            bad = keys[:, 1:] == keys[:, :1]
        # keys center-major, so one sort gives each center its distinct output
        # rows, with their multiplicity and their positive count
        keys += ((pair_center[is_context] - r0) * vocab)[:, None]
        pos_keys, pos_count = np.unique(keys[:, 0], return_counts=True)
        keys, mult = np.unique(keys, return_counts=True)
        pos_at = keys.searchsorted(pos_keys)
        # entries of center i are ends[i] - counts[i]:ends[i]; a center
        # without contexts (a one-token sentence) has none
        ends = keys.searchsorted(np.arange(1, len(pos) + 1) * vocab)
        counts = np.diff(ends, prepend=0)
        rows = keys
        rows -= np.repeat((pos - r0) * vocab, counts)  # in place: keys to output rows
        # a row drawn mult times, p of them as the positive, gets the summed
        # gradient g = alpha * (p - mult * sigmoid(score))
        a_mult = np.repeat(alphas[sent], counts)
        a_pos = np.zeros(len(rows))
        a_pos[pos_at] = a_mult[pos_at] * pos_count
        a_mult *= mult
        scores = np.empty(len(rows))
        for c, a, b in zip(kept[pos].tolist(), (ends - counts).tolist(), ends.tolist()):
            out = rows[a:b]
            u = w_out.take(out, axis=0)  # a gathered copy
            v = w_in[c]                  # a view: updated in place below
            s = u.dot(v)
            scores[a:b] = s
            g = a_pos[a:b] - a_mult[a:b] * expit(s)
            # both gradients use pre-update values: u is a copy, v changes
            # last. The outer product is a rank-1 matmul, which skips the
            # broadcasting machinery; the rows are distinct, so a plain
            # scatter writes each once.
            step = g[:, None].dot(v[None, :])
            step += u
            w_out[out] = step
            v += g.dot(u)
        # -p log sigma(s) - (mult - p) log sigma(-s) = mult log(1 + e^s) - p s,
        # as log sigma(s) = log sigma(-s) + s
        loss_sum -= float(pos_count.dot(scores[pos_at]))
        loss_sum += float(mult.dot(np.logaddexp(0.0, scores, out=scores)))
        total += n_pairs
    return loss_sum, total


def train_sgns_full(
    corpus: Sequence[list[str]], cfg: SgnsConfig, track_loss: bool = True
) -> SgnsResult:
    """Train; returns the embedding matrix, the per-epoch loss curve and the throughput."""
    start = time.perf_counter()
    tokens, counts, ids, lengths = _corpus_ids(corpus, cfg.min_count)
    offsets = _offsets(lengths)

    # batches of whole sentences with at most one run of tokens, unless a
    # single sentence is longer than that; a center has at most 2 * window
    # contexts
    run_centers = max(1, _RUN_SLOTS // (2 * cfg.window * (cfg.negative + 1)))
    batches = []
    first = 0
    while first < len(lengths):
        stop = int(offsets.searchsorted(offsets[first] + run_centers, side="right")) - 1
        stop = max(stop, first + 1)
        batches.append((first, stop))
        first = stop

    noise_cum = _noise_cumulative(counts)
    keep_prob = _keep_probabilities(counts, cfg.sample)

    rng = np.random.default_rng(cfg.seed)
    w_in = (rng.random((len(tokens), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(tokens), cfg.dim))

    total_sentences = cfg.epochs * len(lengths)
    alpha_min = cfg.alpha / 10.0
    epoch_loss: list[float] = []

    processed = 0
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        pair_count = 0
        for first, stop in batches:
            # the rate decays linearly per sentence
            done = processed + np.arange(stop - first)
            alphas = cfg.alpha - (cfg.alpha - alpha_min) * (done / total_sentences)
            loss, pairs = _train_batch(
                ids[offsets[first]:offsets[stop]], lengths[first:stop], alphas, w_in, w_out,
                noise_cum, keep_prob, cfg.negative, cfg.window, run_centers, rng,
            )
            loss_sum += loss
            pair_count += pairs
            processed += stop - first
        if track_loss:
            epoch_loss.append(loss_sum / max(pair_count, 1))
            logger.debug("epoch %d: mean pair loss %.6f", epoch, epoch_loss[-1])

    rate = cfg.epochs * sum(map(len, corpus)) / (time.perf_counter() - start)
    return SgnsResult(EmbeddingMatrix(tokens, w_in), epoch_loss, round(rate, 1))
