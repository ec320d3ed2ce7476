"""Impute missing semantic vectors from domain-space neighborhood structure.

The domain space supplies geometry: a graph over its rows is built as the
union of an exact Euclidean minimum spanning tree and a symmetrized
k-nearest-neighbor graph, so every node has degree >= k and the graph is
connected. Each non-anchor row is then expressed as a convex combination of
its graph neighbors (non-negative least squares, normalized to sum 1), and
those weights drive a fixed-point iteration in the semantic space: anchor
rows stay pinned to their known semantic vectors while every other row is
repeatedly replaced by the weighted average of its neighbors. The iteration
starts from the anchors outward: rows are filled one hop level at a time,
each from its neighbors one level nearer the anchors, so rows far from any
anchor start near their solution rather than at the anchor mean. Because rows
are convex combinations, the iteration is non-expansive and every imputed
coordinate stays inside the range spanned by the anchors.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .embeddings import AnchorMap, EmbeddingMatrix, find_anchors
from .nnls import nnls

if TYPE_CHECKING:  # scipy.sparse is imported on first use, not at `import lsimpute`
    import scipy.sparse as sp

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
# at n = 58,695 (d = 200, 2 cores) knn_mst, then with Prim's MST, took 456 s,
# and 841 s with 2-row kNN blocks. The fixed point iterates column blocks of
# the same size (at least 8 columns).
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 32


def _block_rows(n: int) -> int:
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * n))


@dataclass
class NeighborGraph:
    """Symmetric adjacency over domain rows: kNN edges united with MST edges."""

    neighbors: list[np.ndarray]            # sorted neighbor indices per row
    mst: np.ndarray                        # (n - 1, 2) integer pairs (i, j) with i < j, sorted
    knn: np.ndarray                        # (n, k) int32: each row's k nearest rows, sorted by index
    health: dict[str, int]                 # Borůvka rounds, rows scanned, MST-only edges, degrees

    @property
    def n(self) -> int:
        return len(self.neighbors)

    @property
    def mst_edges(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.mst.tolist()))

    @property
    def knn_edges(self) -> set[tuple[int, int]]:
        return {(min(i, j), max(i, j)) for i, row in enumerate(self.knn.tolist()) for j in row}


def _sq_distances(x: np.ndarray, sq: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances from x[rows] to every row."""
    out = x[rows] @ x.T
    out *= 2.0
    np.subtract(sq[rows, None] + sq, out, out=out)
    return np.maximum(out, 0.0, out=out)


def _knn(x: np.ndarray, sq: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows in (distance, index) order as an (n, k)
    int32 array, and their squared distances; ties go to the smaller row index,
    as in a stable argsort of the row."""
    n = len(x)
    block = _block_rows(n)
    near = np.empty((n, k), dtype=np.int32)
    near_sq = np.empty((n, k))
    for start in range(0, n, block):
        stop = min(start + block, n)
        dist = _sq_distances(x, sq, slice(start, stop))
        np.fill_diagonal(dist[:, start:], np.inf)
        # the k + 1 smallest, sorted by (distance, index): their first k are the
        # k nearest unless the k-th distance equals the (k + 1)-th
        idx = np.argpartition(dist, k, axis=1)[:, :k + 1]
        val = np.take_along_axis(dist, idx, axis=1)
        order = np.lexsort((idx, val), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        val = np.take_along_axis(val, order, axis=1)
        for r in np.flatnonzero(val[:, k - 1] == val[:, k]):
            idx[r, :k] = np.argsort(dist[r], kind="stable")[:k]
            val[r, :k] = dist[r, idx[r, :k]]
        near[start:stop] = idx[:, :k]
        near_sq[start:stop] = val[:, :k]
    return near, near_sq


def _boruvka_mst(
    x: np.ndarray, sq: np.ndarray, near: np.ndarray, near_sq: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Exact MST of the complete distance graph, built from each row's k nearest
    rows in (distance, index) order (near) and their squared distances (near_sq).

    In each Borůvka round every component takes its smallest edge to another
    component under the strict order (distance, smaller row, larger row), so the
    chosen edges never close a cycle. A row's nearest point outside its
    component is the first entry of its list that lies outside. A row whose
    whole list lies inside is at least its k-th distance (or the distance of
    its cached point, once that point has joined the component) from any
    outside point, and is scanned against every row only when that bound can
    reach its component's best edge; a scan caches the row's nearest outside
    point, which stays exact while it stays outside. Returns the (n - 1, 2)
    edges (i < j, sorted), the rounds and the rows scanned.
    """
    from scipy.sparse import coo_array, csgraph

    n = len(near)
    block = _block_rows(n)
    comp = np.arange(n, dtype=np.int32)  # component labels 0 .. count - 1
    count = n
    cached = np.full(n, -1)              # each scanned row's nearest point outside, once found
    cached_sq = near_sq[:, -1].copy()    # a lower bound on that point's distance, exact when found
    keys: list[np.ndarray] = []          # chosen edges as i * n + j, i < j
    rounds = scanned = 0
    while count > 1:
        rounds += 1
        outside = comp[near] != comp[:, None]
        listed = outside.any(axis=1)
        first = outside.argmax(axis=1)
        cand = np.where(listed, near[np.arange(n), first], cached)
        cand_sq = np.where(listed, near_sq[np.arange(n), first], cached_sq)
        found = listed | ((cand >= 0) & (comp[cand] != comp))
        best = np.full(count, np.inf)
        np.minimum.at(best, comp[found], cand_sq[found])
        scan = np.flatnonzero(~found & (cached_sq <= best[comp]))
        for start in range(0, len(scan), block):
            rows = scan[start:start + block]
            dist = _sq_distances(x, sq, rows)
            dist[comp[rows, None] == comp] = np.inf
            nearest = dist.argmin(axis=1)
            cand[rows] = cached[rows] = nearest
            cand_sq[rows] = cached_sq[rows] = dist[np.arange(len(rows)), nearest]
        found[scan] = True
        scanned += len(scan)

        rows = np.flatnonzero(found)
        lo = np.minimum(rows, cand[rows])
        hi = np.maximum(rows, cand[rows])
        order = np.lexsort((hi, lo, cand_sq[rows], comp[rows]))
        label = comp[rows[order]]
        pick = order[np.r_[True, label[1:] != label[:-1]]]
        keys.append(lo[pick] * n + hi[pick])
        joins = coo_array((np.ones(len(pick)), (comp[lo[pick]], comp[hi[pick]])),
                        shape=(count, count))
        count, labels = csgraph.connected_components(joins, directed=False)
        comp = labels[comp]
    mst = np.column_stack(np.divmod(np.unique(np.concatenate(keys)), n))
    return mst, rounds, scanned


def knn_mst(domain: EmbeddingMatrix, k: int) -> NeighborGraph:
    """Union of the exact Euclidean MST and the symmetrized kNN graph.

    Each row contributes edges to its k nearest rows (ties broken by smaller
    row index); the MST guarantees connectivity, the kNN part guarantees
    minimum degree k. Distances are computed a block of rows at a time, so
    memory stays O(n·k) and the n × n matrix never exists; the MST is built
    from the kNN lists (_boruvka_mst), scanning only rows whose list lies
    inside their component.
    """
    from scipy.sparse import csr_array

    n = len(domain)
    if n < 2:
        raise ValueError(f"need at least 2 domain rows, got {n}")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of rows n={n}")

    x = domain.vectors
    sq = np.einsum("ij,ij->i", x, x)
    knn, knn_sq = _knn(x, sq, k)
    mst, rounds, scanned = _boruvka_mst(x, sq, knn, knn_sq)
    del knn_sq
    knn.sort(axis=1)  # from (distance, index) order to index order, in place

    rows = np.concatenate([np.repeat(np.arange(n, dtype=np.int32), k), mst[:, 0]], dtype=np.int32)
    cols = np.concatenate([knn.ravel(), mst[:, 1]], dtype=np.int32)
    a = csr_array((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    union = a + a.T
    union.sort_indices()
    neighbors = np.split(union.indices, union.indptr[1:-1])
    in_knn = ((knn[mst[:, 0]] == mst[:, 1, None]).any(axis=1)
              | (knn[mst[:, 1]] == mst[:, 0, None]).any(axis=1))
    degree = np.diff(union.indptr)
    health = {
        "boruvka_rounds": rounds,
        "mst_rows_scanned": scanned,
        "mst_edges_outside_knn": int((~in_knn).sum()),
        "min_degree": int(degree.min()),
        "max_degree": int(degree.max()),
    }
    return NeighborGraph(neighbors, mst, knn, health)


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


def solve_weights(
    domain: EmbeddingMatrix, graph: NeighborGraph, anchors: set[int]
) -> WeightMatrix:
    """Per-row NNLS against neighbor vectors, normalized to convex weights.

    A row whose NNLS solution is all zero (its vector has no nonnegative
    component on any neighbor) falls back to uniform weights so the matrix
    stays row-stochastic; such rows are logged and recorded.
    """
    from scipy.sparse import csr_matrix

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
    matrix = csr_matrix((np.concatenate(data), np.concatenate(cols), row_ptr), shape=(n, n))
    return WeightMatrix(matrix, frozenset(anchors), fallback_rows)


@dataclass
class ImputationResult:
    imputed: EmbeddingMatrix          # non-anchor domain tokens only
    iterations: int                   # the largest count over the column blocks
    residual: float  # max |W·X − X| over non-anchor rows of the returned X
    converged: bool
    fallback_rows: int
    unreachable_tokens: list[str]     # tokens of non-anchor rows with no path to an anchor
    anchor_hops_max: int              # most hops from a reachable row to an anchor
    block_iterations: list[int]       # one count per column block
    threads: int                      # threads that solved the blocks; 0 when nothing is imputed
    graph_health: dict[str, int] = field(default_factory=dict)  # knn_mst's; empty with no graph


def _anchor_levels(weights: WeightMatrix) -> np.ndarray:
    """Each row's hop level: 1 for anchors, otherwise 1 + the lowest level among
    the rows it depends on (W[i, j] > 0); inf when no anchor is reachable."""
    from scipy.sparse import csgraph

    anchors = np.fromiter(weights.anchor_rows, dtype=np.int64)
    # i depends on j when W[i, j] > 0 (only positive weights are stored), so one
    # search from every anchor at once walks the edges j -> i, the rows of W^T
    return 1 + csgraph.dijkstra(weights.matrix.T.tocsr(), indices=anchors, unweighted=True,
                                min_only=True)


def _start_levels(
    w: sp.csr_matrix, level: np.ndarray
) -> list[tuple[np.ndarray, sp.csr_matrix]]:
    """Levels 2, 3, ... (level: every row's hop level, anchors 1), each as its
    rows and their weights on the rows exactly one level nearer, scaled to sum 1."""
    reachable = np.flatnonzero(np.isfinite(level) & (level > 1))
    order = reachable[np.argsort(level[reachable], kind="stable")]
    nearer = w.copy()
    # keeps each row's entries in their order, so a row whose weights already
    # sum to 1 is summed exactly as in one full W·X
    nearer.data[level[nearer.indices] != np.repeat(level - 1, np.diff(nearer.indptr))] = 0
    nearer.eliminate_zeros()
    out = []
    for rows in np.split(order, np.flatnonzero(np.diff(level[order])) + 1):
        if len(rows):
            m = nearer[rows]
            m.data /= np.repeat(np.add.reduceat(m.data, m.indptr[:-1]), np.diff(m.indptr))
            out.append((rows, m))
    return out


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _solve_block(
    w_uu: sp.csr_matrix, pinned: np.ndarray, x: np.ndarray, cfg: LsiConfig
) -> tuple[np.ndarray, int, float]:
    """Iterate x <- W_uu·x + pinned on one block of columns until the largest
    change drops below eta; returns the last iterate, the step count and the
    last change."""
    for iterations in range(1, cfg.max_iters + 1):
        nxt = w_uu @ x
        nxt += pinned
        # the old iterate is not needed after this step and serves as scratch
        change = float(np.abs(np.subtract(x, nxt, out=x), out=x).max())
        x = nxt
        if change < cfg.eta:
            break
    return x, iterations, change


def impute(
    weights: WeightMatrix,
    anchors: AnchorMap,
    semantic: EmbeddingMatrix,
    domain_tokens: list[str],
    cfg: LsiConfig,
) -> ImputationResult:
    """Fixed-point iteration: rows become weighted averages, anchors stay pinned.

    Every row has a hop level (_anchor_levels): anchors 1, and each other row
    one more than the nearest level among the rows it depends on. Each reachable
    non-anchor row starts at the weighted average of its rows exactly one level
    nearer (_start_levels), built outward from the anchors; rows that reach no
    anchor (policy anchor-mean) start and stay at the mean of the anchor semantic
    vectors. All rows are then updated synchronously; the fixed point does not
    depend on the start. The map acts on each semantic column separately, so the
    columns are split into blocks of about _BLOCK_BYTES of state each. Each block
    fills its start on its own columns, iterates x <- W_uu·x + W_ua·X_a (u:
    non-anchor rows, a: anchor rows; _solve_block) until its largest change falls
    below eta, and returns its step count, last change and residual. Blocks run
    on min(blocks, usable cores) pool threads, inline when that is one, and come
    back in block order; the block width depends only on the number of
    non-anchor rows, so the output does not depend on the number of cores.
    Anchor rows are never iterated, so their semantic vectors come out
    bit-identical.
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

    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[dom_rows] = True
    non_anchor = np.flatnonzero(~is_anchor)
    level = _anchor_levels(weights)
    unreachable = np.flatnonzero(np.isinf(level))
    unreachable_tokens = [domain_tokens[i] for i in unreachable]
    if len(unreachable):
        if cfg.unreachable_policy == "error":
            raise ValueError(
                f"{len(unreachable)} nodes cannot reach any anchor through "
                f"positive weights (first: {unreachable_tokens[:5]})"
            )
        logger.warning(
            "%d unreachable nodes kept at the anchor mean", len(unreachable)
        )

    # reachable non-anchor rows are filled by the start in each column block
    state = np.empty((n, semantic.dim))
    state[unreachable] = anchor_vectors.mean(axis=0)
    state[dom_rows] = anchor_vectors
    anchor_hops_max = int(level[np.isfinite(level)].max()) - 1

    iterations, converged, residual, block_iterations, threads = 0, True, 0.0, [], 0
    if len(non_anchor):
        w_u = weights.matrix[non_anchor]
        w_uu = w_u[:, non_anchor]
        w_ua = w_u[:, np.flatnonzero(is_anchor)]
        start = _start_levels(weights.matrix, level)
        width = max(8, _BLOCK_BYTES // (8 * len(non_anchor)))
        blocks = [slice(c, min(c + width, semantic.dim)) for c in range(0, semantic.dim, width)]

        def solve(cols: slice) -> tuple[int, float, float]:
            block = state[:, cols]  # a view: each block writes only its own columns
            for rows, nearer in start:
                block[rows] = nearer @ block
            x, steps, change = _solve_block(
                w_uu, w_ua @ block[is_anchor], block[non_anchor], cfg)
            block[non_anchor] = x
            # each column's sums run in the same order as in one full W·X
            gap = w_u @ block
            gap -= x
            return steps, change, float(np.abs(gap, out=gap).max())

        threads = min(len(blocks), _usable_cores())
        if threads == 1:
            solved = list(map(solve, blocks))
        else:
            from concurrent.futures import ThreadPoolExecutor  # on first use only

            # scipy's sparse products and numpy's ufuncs release the GIL
            with ThreadPoolExecutor(threads) as pool:
                solved = list(pool.map(solve, blocks))
        block_iterations, last_change, block_residual = map(list, zip(*solved))

        iterations = max(block_iterations)
        stuck = [change for change in last_change if not change < cfg.eta]
        converged = not stuck
        if stuck:
            logger.warning(
                "no convergence after %d iterations in %d of %d column blocks "
                "(largest last change %.3g)",
                cfg.max_iters, len(stuck), len(blocks), max(stuck),
            )
        residual = max(block_residual)

    return ImputationResult(
        imputed=EmbeddingMatrix([domain_tokens[i] for i in non_anchor], state[non_anchor]),
        iterations=iterations,
        residual=residual,
        converged=converged,
        fallback_rows=len(weights.fallback_rows),
        unreachable_tokens=unreachable_tokens,
        anchor_hops_max=anchor_hops_max,
        block_iterations=block_iterations,
        threads=threads,
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
    graph_health: dict[str, int] = {}
    if len(anchors) == len(domain):
        logger.info("domain vocabulary fully covered; nothing to impute")
        from scipy.sparse import identity

        weights = WeightMatrix(identity(len(domain), format="csr"),
                               frozenset(anchors.domain_rows()))
    else:
        graph = knn_mst(domain, cfg.k)
        graph_health = graph.health
        weights = solve_weights(domain, graph, set(anchors.domain_rows()))
    result = impute(weights, anchors, semantic, list(domain.tokens), cfg)
    return replace(result, graph_health=graph_health)
