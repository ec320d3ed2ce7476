"""Independent reference implementations used only to check the real code.

Each oracle deliberately takes the dumbest correct route (brute force,
projection steps, exhaustive scans) and shares no code with the package.
"""

from __future__ import annotations

import math
import os
import stat
from collections import Counter

import numpy as np


def projected_gradient_nnls(
    A: np.ndarray, b: np.ndarray, tol: float = 1e-12, max_iter: int = 200_000
) -> np.ndarray:
    """min ||Ax - b|| s.t. x >= 0 by projected gradient descent with fixed step."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gram = A.T @ A
    atb = A.T @ b
    lipschitz = np.linalg.eigvalsh(gram).max()
    step = 1.0 / lipschitz if lipschitz > 0 else 1.0
    x = np.zeros(A.shape[1])
    for _ in range(max_iter):
        grad = gram @ x - atb
        x_new = np.maximum(x - step * grad, 0.0)
        if np.abs(x_new - x).max() < tol:
            return x_new
        x = x_new
    return x


def kruskal_mst(points: np.ndarray) -> set[tuple[int, int]]:
    """Exact Euclidean MST by sorting all n^2 edges and union-find."""
    n = len(points)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((float(np.linalg.norm(points[i] - points[j])), i, j))
    edges.sort()
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    mst: set[tuple[int, int]] = set()
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            mst.add((i, j))
            if len(mst) == n - 1:
                break
    return mst


def transitive_closure_components(n: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Components via boolean reachability-matrix powering."""
    reach = np.eye(n, dtype=bool)
    for i, j in edges:
        reach[i, j] = reach[j, i] = True
    for _ in range(n):
        new = reach | ((reach.astype(np.int64) @ reach.astype(np.int64)) > 0)
        if (new == reach).all():
            break
        reach = new
    seen = set()
    components = []
    for i in range(n):
        if i in seen:
            continue
        comp = sorted(np.flatnonzero(reach[i]).tolist())
        seen.update(comp)
        components.append(comp)
    components.sort(key=lambda c: c[0])
    return components


def anchor_hop_levels(depends: np.ndarray, anchors: list[int]) -> np.ndarray:
    """Hop levels by frontier expansion over a dense boolean matrix, where
    depends[i, j] means row i depends on row j: anchors are level 1, and a row
    with no level yet joins level l + 1 when it depends on a row of level l.
    Rows never reached stay inf."""
    level = np.full(len(depends), np.inf)
    frontier = np.zeros(len(depends), dtype=bool)
    frontier[anchors] = True
    step = 1
    while frontier.any():
        level[frontier] = step
        frontier = depends[:, frontier].any(axis=1) & (level == np.inf)
        step += 1
    return level


def set_adjacency(n: int, pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Sorted neighbor lists of an undirected graph, from one set per node."""
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        neighbors[i].add(j)
        neighbors[j].add(i)
    return [sorted(nbrs) for nbrs in neighbors]


def second_order_walks(
    n: int, pairs: list[tuple[int, int]], p: float, q: float, n_walks: int, length: int, seed: int
) -> list[list[int]]:
    """node2vec walks in the documented draw order, from one neighbor set per node.

    Round by round, every node with a neighbor starts a walk on the stream
    default_rng([seed, node, round]). Each trial draws integers(deg) over the
    current node's sorted neighbor list, then random() = u, and accepts x when
    u * max(w) < w(t, x), with w = 1/p back to t, 1 to a neighbor of t and
    1/q otherwise; the first step accepts its first draw.
    """
    nbrs = set_adjacency(n, pairs)
    sets = [set(row) for row in nbrs]
    weights = (1.0 / p, 1.0, 1.0 / q)
    walks = []
    for walk_idx in range(n_walks):
        for node in (v for v in range(n) if nbrs[v]):
            rng = np.random.default_rng([seed, node, walk_idx])
            walk = [node]
            while len(walk) < length:
                row = nbrs[walk[-1]]
                while True:
                    x = row[rng.integers(len(row))]
                    u = rng.random()
                    if len(walk) == 1:
                        break
                    t = walk[-2]
                    w = weights[0] if x == t else weights[1] if x in sets[t] else weights[2]
                    if u * max(weights) < w:
                        break
                walk.append(x)
            walks.append(walk)
    return walks


def naive_filter(sentences: list[str], terms: set[str]) -> list[str]:
    """Per-sentence scan: keep unless some token (punctuation-stripped,
    lower-cased) equals a term or a term plus 's' or 'es'."""
    targets = set(terms) | {t + "s" for t in terms} | {t + "es" for t in terms}
    kept = []
    for sentence in sentences:
        toks = {w.strip(".,;:!?()\"'[]") for w in sentence.lower().split()}
        if not (toks & targets):
            kept.append(sentence)
    return kept


def per_token_filter(sentences: list[str], terms: set[str]) -> tuple[list[str], dict[str, int]]:
    """Kept sentences and removed sentences per term, testing one token and suffix at a time.

    A token is a whitespace-split word, lower-cased and punctuation-stripped,
    and empty tokens are dropped; it matches a term equal to it, or to it less
    a trailing "s" or "es".
    """
    kept, hits = [], {}
    for sentence in sentences:
        matched = set()
        for raw in sentence.lower().split():
            tok = raw.strip(".,;:!?()\"'[]")
            if not tok:
                continue
            if tok in terms:
                matched.add(tok)
            for suffix in ("s", "es"):
                if tok.endswith(suffix) and tok[: -len(suffix)] in terms:
                    matched.add(tok[: -len(suffix)])
        if matched:
            for term in matched:
                hits[term] = hits.get(term, 0) + 1
        else:
            kept.append(sentence)
    return kept, hits


def pair_log_likelihood(center: np.ndarray, context: np.ndarray, negatives: np.ndarray) -> float:
    """log sigma(c.o) + sum_i log sigma(-c.n_i): the objective of one positive
    pair and its negatives, written from the formula."""

    def log_sigmoid(x: float) -> float:
        return float(-np.logaddexp(0.0, -x))

    value = log_sigmoid(float(center @ context))
    for neg in np.atleast_2d(negatives):
        value += log_sigmoid(-float(center @ neg))
    return value


def sgd_step_by_central_differences(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray, alpha: float,
    h: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SGD ascent step of `pair_log_likelihood`: alpha times its gradient in
    the center, the context and the negatives, each entry by a central
    difference at the given values."""
    vecs = [np.array(center, dtype=np.float64), np.array(context, dtype=np.float64),
            np.atleast_2d(np.array(negatives, dtype=np.float64))]
    steps = []
    for which, base in enumerate(vecs):
        step = np.empty_like(base)
        for idx in np.ndindex(base.shape):
            bumped = [v.copy() for v in vecs]
            bumped[which][idx] += h
            up = pair_log_likelihood(*bumped)
            bumped[which][idx] -= 2 * h
            step[idx] = alpha * (up - pair_log_likelihood(*bumped)) / (2 * h)
        steps.append(step)
    return tuple(steps)


def sgns_batch_sgd(
    sentences: list[np.ndarray],
    alphas: list[float],
    w_in: np.ndarray,
    w_out: np.ndarray,
    noise_cum: np.ndarray,
    keep_prob: np.ndarray,
    negative: int,
    window: int,
    run_centers: int,
    rng: np.random.Generator,
) -> tuple[float, int]:
    """One batch of SGNS SGD, pair by pair in plain loops; returns (loss sum, pairs).

    Draws follow the trainer's documented stream: a keep flag for every token
    of the batch, one span per kept token, then for each run of `run_centers`
    kept tokens every negative of the run's pairs (collisions with the
    positive redrawn). Each center is one step at its sentence's alpha: its
    gradients use the values from before it, and so does its loss,
    -log sigma(score) for a positive and -log sigma(-score) for a negative.
    """
    flags = iter(rng.random(sum(len(s) for s in sentences)))
    kept = [[int(t) for t in s if next(flags) < keep_prob[t]] for s in sentences]
    centers = [(i, pos) for i, toks in enumerate(kept) for pos in range(len(toks))]
    spans = rng.integers(1, window + 1, size=len(centers))
    total = 0
    loss = 0.0
    for r0 in range(0, len(centers), run_centers):
        run = range(r0, min(r0 + run_centers, len(centers)))
        pairs = []
        for c in run:
            i, pos = centers[c]
            b = int(spans[c])
            for other in range(max(0, pos - b), min(len(kept[i]), pos + b + 1)):
                if other != pos:
                    pairs.append((c, kept[i][other]))
        negs = noise_cum.searchsorted(rng.random((len(pairs), negative)))
        contexts = np.array([o for _, o in pairs])
        for _ in range(16):
            bad = negs == contexts[:, None]
            if not bad.any():
                break
            negs[bad] = noise_cum.searchsorted(rng.random(int(bad.sum())))
        for c in run:
            i, pos = centers[c]
            steps = []
            for (p, context), row in zip(pairs, negs):
                if p == c:
                    steps.append((context, 1.0))
                    steps.extend((int(neg), 0.0) for neg in row)
            center = kept[i][pos]
            v = w_in[center].copy()
            outs = {o: w_out[o].copy() for o, _ in steps}
            grad_center = np.zeros_like(v)
            for o, label in steps:
                score = float(outs[o] @ v)
                loss += math.log1p(math.exp(-score if label else score))
                g = alphas[i] * (label - 1.0 / (1.0 + math.exp(-score)))
                grad_center += g * outs[o]
                w_out[o] += g * v
            w_in[center] = v + grad_center
        total += len(pairs)
    return loss, total


def reference_extraction(
    triples: list[tuple[str, str, str, bool]],
    node_types: set[str],
    bridge_types: set[str],
    label_predicate: str,
    type_predicate: str,
) -> tuple[list[str], list[str], set[tuple[str, str]]]:
    """Typed-subgraph extraction over (s, p, o, is_literal) tuples, row by row.

    Returns the sorted kept node IDs, their first labels, and the edges as
    (smaller ID, larger ID) pairs.
    """
    types: dict[str, set[str]] = {}
    labels: dict[str, str] = {}
    links = []
    for s, p, o, is_literal in triples:
        if p == type_predicate and not is_literal:
            types.setdefault(s, set()).add(o)
        elif p == label_predicate and is_literal:
            labels.setdefault(s, o)
        elif not is_literal and s != o:
            links.append((s, o))
    primary = {n for n, ts in types.items() if ts & node_types}
    candidates = {n for n, ts in types.items() if ts & bridge_types}
    kept = set(primary)
    for s, o in links:
        if s in primary and o in candidates:
            kept.add(o)
        if o in primary and s in candidates:
            kept.add(s)
    node_ids = sorted(n for n in kept if n in labels)
    edges = {(min(s, o), max(s, o)) for s, o in links if s in node_ids and o in node_ids}
    return node_ids, [labels[n] for n in node_ids], edges


def per_score_bootstrap(
    cosines: np.ndarray, human: np.ndarray, n_resamples: int, seed: int
) -> tuple[float, list[float], int]:
    """Point Pearson r, bootstrap r values and degenerate count for one score type.

    Resample i draws its index from default_rng([seed, i]), one score type at
    a time; a resample with a constant side is degenerate.
    """
    point = float(np.corrcoef(cosines, human)[0, 1])
    values = []
    degenerate = 0
    for i in range(n_resamples):
        idx = np.random.default_rng([seed, i]).integers(0, len(human), size=len(human))
        x, y = cosines[idx], human[idx]
        if x.min() == x.max() or y.min() == y.max():
            degenerate += 1
        else:
            values.append(float(np.corrcoef(x, y)[0, 1]))
    return point, values, degenerate


def build_vocabulary(corpus: list[list[str]], min_count: int) -> tuple[list[str], np.ndarray]:
    """Tokens of at least min_count sorted by descending count (ties by token), with
    counts, from one Counter over the whole corpus."""
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


def read_word2vec_text(
    path: str, error: type[Exception] = ValueError
) -> tuple[list[str], np.ndarray]:
    """word2vec text, one Python float() per value: the reader as it was before
    it parsed rows in bulk, raising `error` with the same messages."""
    tokens: list[str] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise error(f"{path}:1: header must be '<count> <dim>', got {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise error(f"{path}:1: non-integer header fields {header!r}") from None
        if count < 0 or dim < 1:
            raise error(f"{path}:1: invalid header count={count} dim={dim}")
        st, need = os.fstat(fh.fileno()), count * 2 * (dim + 1)
        if stat.S_ISREG(st.st_mode) and need > st.st_size:
            raise error(f"{path}:1: header declares {count} rows of dim {dim}, "
                        f"at least {need} bytes, but the file has {st.st_size}")
        vectors = np.empty((count, dim), dtype=np.float64)
        row = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if row >= count:
                raise error(f"{path}:{lineno}: more rows than declared count {count}")
            if len(fields) != dim + 1:
                raise error(f"{path}:{lineno}: row arity {len(fields) - 1} != declared dim {dim}")
            token = fields[0]
            if token in seen:
                raise error(
                    f"{path}:{lineno}: duplicate token {token!r} (first at line {seen[token]})")
            seen[token] = lineno
            try:
                values = [float(v) for v in fields[1:]]
            except ValueError:
                raise error(f"{path}:{lineno}: non-numeric value") from None
            if not all(math.isfinite(v) for v in values):
                raise error(f"{path}:{lineno}: non-finite value")
            vectors[row] = values
            tokens.append(token)
            row += 1
    if row != count:
        raise error(f"{path}: declared {count} rows but found {row}")
    return tokens, vectors
