"""Impute missing semantic vectors from domain-space neighborhood structure.

The domain space supplies geometry: a graph over its rows is built as the
union of an exact Euclidean minimum spanning tree and a symmetrized
k-nearest-neighbor graph, so every node has degree >= k and the graph is
connected. Each non-anchor row is then expressed as a convex combination of
its graph neighbors (non-negative least squares, normalized to sum 1), and
those weights drive a fixed-point iteration in the semantic space: anchor
rows stay pinned to their known semantic vectors while every other row is
repeatedly replaced by the weighted average of its neighbors. Because rows
are convex combinations, the iteration is non-expansive and every imputed
coordinate stays inside the range spanned by the anchors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .embeddings import AnchorMap, EmbeddingMatrix, find_anchors
from .nnls import nnls

logger = logging.getLogger(__name__)


@dataclass
class LsiConfig:
    k: int = 50              # minimal degree of the neighborhood graph
    eta: float = 1e-4        # stop when the largest per-row change drops below this
    max_iters: int = 10_000
    unreachable_policy: str = "error"  # or "anchor-mean"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.unreachable_policy not in ("error", "anchor-mean"):
            raise ValueError(f"unknown unreachable_policy {self.unreachable_policy!r}")


# Distance rows come in blocks of about this many bytes of float64 (temporaries
# add twice that), but of at least 32 rows, so that BLAS multiplies matrices:
# at n = 58,695 (d = 200, 2 cores) knn_mst took 456 s, and 841 s with 2-row blocks.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 32


@dataclass
class NeighborGraph:
    """Symmetric adjacency over domain rows: kNN edges united with MST edges."""

    neighbors: list[np.ndarray]            # sorted neighbor indices per row
    mst: np.ndarray                        # (n - 1, 2) integer pairs (i, j) with i < j
    knn: np.ndarray                        # (n, k) int32: each row's k nearest rows, sorted

    @property
    def n(self) -> int:
        return len(self.neighbors)

    @property
    def mst_edges(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.mst.tolist()))

    @property
    def knn_edges(self) -> set[tuple[int, int]]:
        return {(min(i, j), max(i, j)) for i, row in enumerate(self.knn.tolist()) for j in row}

    def edges(self) -> set[tuple[int, int]]:
        return self.mst_edges | self.knn_edges

    def min_degree(self) -> int:
        return min(len(nbrs) for nbrs in self.neighbors)


def _sq_distances(x: np.ndarray, sq: np.ndarray, rows: slice) -> np.ndarray:
    """Exact squared Euclidean distances from x[rows] to every row."""
    out = x[rows] @ x.T
    out *= 2.0
    np.subtract(sq[rows, None] + sq, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _knn(x: np.ndarray, sq: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows as an (n, k) int32 array, each row sorted;
    ties go to the smaller row index, as in a stable argsort of the row."""
    n = len(x)
    block = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * n))
    knn = np.empty((n, k), dtype=np.int32)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = _sq_distances(x, sq, slice(start, stop))
        np.fill_diagonal(dist[:, start:], np.inf)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1].copy()
        near = dist <= kth[:, None]
        for r in np.flatnonzero(near.sum(axis=1) > k):  # ties at the k-th distance
            near[r] = False
            near[r, np.argsort(dist[r], kind="stable")[:k]] = True
        knn[start:stop] = np.nonzero(near)[1].reshape(-1, k)
    return knn


def _prim_mst(x: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Exact MST of the complete distance graph: O(n^2) Prim, one distance row at a time."""
    n = len(x)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # stays inf for rows in the tree
    parent = np.zeros(n, dtype=np.int64)
    edges = np.empty((n - 1, 2), dtype=np.int64)
    v = 0
    for step in range(n - 1):
        in_tree[v] = True
        row = _sq_distances(x, sq, slice(v, v + 1))[0]
        row[in_tree] = np.inf
        parent[row < best] = v
        np.minimum(best, row, out=best)
        best[v] = np.inf
        v = int(np.argmin(best))
        edges[step] = sorted((int(parent[v]), v))
    return edges


def knn_mst(domain: EmbeddingMatrix, k: int) -> NeighborGraph:
    """Union of the exact Euclidean MST and the symmetrized kNN graph.

    Each row contributes edges to its k nearest rows (ties broken by smaller
    row index); the MST guarantees connectivity, the kNN part guarantees
    minimum degree k. Distances are computed a block of rows at a time, so
    memory stays O(n·k) and the n × n matrix never exists.
    """
    n = len(domain)
    if n < 2:
        raise ValueError(f"need at least 2 domain rows, got {n}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of rows n={n}")

    x = domain.vectors
    sq = np.einsum("ij,ij->i", x, x)
    knn = _knn(x, sq, k)
    mst = _prim_mst(x, sq)

    rows = np.concatenate([np.repeat(np.arange(n, dtype=np.int32), k), mst[:, 0]], dtype=np.int32)
    cols = np.concatenate([knn.ravel(), mst[:, 1]], dtype=np.int32)
    a = sp.csr_array((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    union = a + a.T
    union.sort_indices()
    neighbors = np.split(union.indices, union.indptr[1:-1])
    return NeighborGraph(neighbors, mst, knn)


@dataclass
class WeightMatrix:
    """Sparse row-stochastic reconstruction weights over domain rows.

    Non-anchor rows hold nonnegative weights on their graph neighbors summing
    to 1; anchor rows are exactly the identity.
    """

    matrix: sp.csr_matrix
    anchor_rows: frozenset[int]
    fallback_rows: list[int] = field(default_factory=list)  # uniform-weight fallbacks

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row_entries(self, i: int) -> list[tuple[int, float]]:
        start, stop = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        return [
            (int(j), float(w))
            for j, w in zip(self.matrix.indices[start:stop], self.matrix.data[start:stop])
        ]


def solve_weights(
    domain: EmbeddingMatrix, graph: NeighborGraph, anchors: set[int]
) -> WeightMatrix:
    """Per-row NNLS against neighbor vectors, normalized to convex weights.

    A row whose NNLS solution is all zero (its vector has no nonnegative
    component on any neighbor) falls back to uniform weights so the matrix
    stays row-stochastic; such rows are logged and recorded.
    """
    n = len(domain)
    if graph.n != n:
        raise ValueError(f"graph has {graph.n} rows, domain has {n}")
    vectors = domain.vectors
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    fallback_rows: list[int] = []

    for i in range(n):
        if i in anchors:
            cols.append(np.array([i]))
            data.append(np.ones(1))
            continue
        nbrs = graph.neighbors[i]
        x = nnls(vectors[nbrs].T, vectors[i])
        total = x.sum()
        if total <= 0:
            fallback_rows.append(i)
            x = np.full(len(nbrs), 1.0 / len(nbrs))
        else:
            x = x / total
        nz = x > 0
        cols.append(nbrs[nz])
        data.append(x[nz])

    if fallback_rows:
        logger.warning("%d rows fell back to uniform neighbor weights", len(fallback_rows))
    row_ptr = np.cumsum([0] + [len(c) for c in cols])
    matrix = sp.csr_matrix((np.concatenate(data), np.concatenate(cols), row_ptr), shape=(n, n))
    return WeightMatrix(matrix, frozenset(anchors), fallback_rows)


@dataclass
class ImputationResult:
    imputed: EmbeddingMatrix          # non-anchor domain tokens only
    iterations: int
    residual: float  # max |W·X − X| over non-anchor rows of the returned X
    converged: bool
    fallback_rows: int
    unreachable_tokens: list[str]


def _reachable_from_anchors(weights: WeightMatrix) -> np.ndarray:
    """Nodes with a positive-weight path to some anchor (reverse traversal)."""
    from scipy.sparse import csgraph  # imported on first use, not at `import lsimpute`

    n = weights.n
    anchors = np.array(list(weights.anchor_rows), dtype=np.int64)
    # i depends on j when W[i, j] > 0 (only positive weights are stored), so
    # walk the edges j -> i, starting from a virtual node n joined to every anchor
    w = weights.matrix.tocoo()
    tails = np.concatenate([w.col, np.full(len(anchors), n)])
    heads = np.concatenate([w.row, anchors])
    graph = sp.csr_array((np.ones(len(tails)), (tails, heads)), shape=(n + 1, n + 1))
    reachable = np.zeros(n + 1, dtype=bool)
    reachable[csgraph.breadth_first_order(graph, n, return_predecessors=False)] = True
    return reachable[:n]


def impute(
    weights: WeightMatrix,
    anchors: AnchorMap,
    semantic: EmbeddingMatrix,
    domain_tokens: list[str],
    cfg: LsiConfig,
) -> ImputationResult:
    """Fixed-point iteration: rows become weighted averages, anchors stay pinned.

    Non-anchor rows start at the mean of the anchor semantic vectors and are
    updated synchronously (all rows from the previous iterate) until the
    largest per-row max-norm change falls below eta. Anchor semantic vectors
    are reassigned after every step, so they come out bit-identical.
    """
    n = weights.n
    if len(domain_tokens) != n:
        raise ValueError(f"{len(domain_tokens)} domain tokens for {n} weight rows")
    anchor_domain = [d for _, d in anchors.pairs]
    if set(anchor_domain) != set(weights.anchor_rows):
        raise ValueError("anchor map and weight-matrix anchor rows disagree")
    if not anchor_domain:
        raise ValueError("no anchors: nothing pins the semantic space")

    sem_rows = np.array([s for s, _ in anchors.pairs], dtype=np.int64)
    dom_rows = np.array(anchor_domain, dtype=np.int64)
    anchor_vectors = semantic.vectors[sem_rows]

    reachable = _reachable_from_anchors(weights)
    non_anchor = np.array(
        [i for i in range(n) if i not in weights.anchor_rows], dtype=np.int64
    )
    unreachable = [i for i in non_anchor if not reachable[i]]
    unreachable_tokens = [domain_tokens[i] for i in unreachable]
    if unreachable:
        if cfg.unreachable_policy == "error":
            raise ValueError(
                f"{len(unreachable)} nodes cannot reach any anchor through "
                f"positive weights (first: {unreachable_tokens[:5]})"
            )
        logger.warning(
            "%d unreachable nodes kept at the anchor mean", len(unreachable)
        )

    state = np.empty((n, semantic.dim))
    state[:] = anchor_vectors.mean(axis=0)
    state[dom_rows] = anchor_vectors

    w = weights.matrix
    iterations, converged, residual = 0, True, 0.0
    if len(non_anchor):
        for iterations in range(1, cfg.max_iters + 1):
            nxt = w @ state
            nxt[dom_rows] = anchor_vectors  # exact, not just numerically stable
            # anchor rows are equal in both iterates; the old iterate serves as scratch
            max_change = float(np.abs(np.subtract(state, nxt, out=state), out=state).max())
            state = nxt
            if max_change < cfg.eta:
                break
        converged = max_change < cfg.eta
        if not converged:
            logger.warning(
                "no convergence after %d iterations (last change %.3g)",
                cfg.max_iters, max_change,
            )
        residual = float(np.abs((w @ state)[non_anchor] - state[non_anchor]).max())

    return ImputationResult(
        imputed=EmbeddingMatrix([domain_tokens[i] for i in non_anchor], state[non_anchor]),
        iterations=iterations,
        residual=residual,
        converged=converged,
        fallback_rows=len(weights.fallback_rows),
        unreachable_tokens=unreachable_tokens,
    )


def lsi_pipeline(
    semantic: EmbeddingMatrix, domain: EmbeddingMatrix, cfg: LsiConfig
) -> ImputationResult:
    """Anchor matching, neighborhood graph, weights, then the fixed-point solve.

    Returns imputed vectors for exactly the domain tokens absent from the
    semantic vocabulary.
    """
    anchors = find_anchors(semantic, domain)
    if len(anchors) == 0:
        raise ValueError("the two vocabularies share no tokens; imputation needs anchors")
    if len(anchors) == len(domain):
        logger.info("domain vocabulary fully covered; nothing to impute")
        identity = sp.identity(len(domain), format="csr")
        weights = WeightMatrix(identity, frozenset(anchors.domain_rows()))
    else:
        graph = knn_mst(domain, cfg.k)
        weights = solve_weights(domain, graph, set(anchors.domain_rows()))
    return impute(weights, anchors, semantic, list(domain.tokens), cfg)
