"""Orthogonal alignment of the domain space onto the semantic space.

The baseline alternative to imputation: fit the best orthogonal map on the
anchor pairs (classical Procrustes, via SVD of the cross-covariance) and use
mapped domain vectors directly for out-of-vocabulary tokens.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix, find_anchors

logger = logging.getLogger(__name__)


@dataclass
class OrthogonalMap:
    matrix: np.ndarray  # (domain_dim, semantic_dim)
    anchor_count: int
    residual: float     # ||X Q - Y||_F on the fitting anchors


def fit_alignment(domain_anchors: np.ndarray, semantic_anchors: np.ndarray) -> OrthogonalMap:
    """Q minimizing ||X Q - Y||_F over orthogonal matrices, Q = U V^T from the thin SVD of X^T Y.

    When the two dimensions differ, Q is semi-orthogonal: its rows (domain dim
    smaller) or its columns (domain dim larger) are orthonormal. Reflections
    are permitted (no det(Q) = +1 constraint). Fewer anchor rows
    than dimensions gives a rank-deficient fit; it is computed anyway with a
    warning.
    """
    X = np.asarray(domain_anchors, dtype=np.float64)
    Y = np.asarray(semantic_anchors, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("anchor matrices must be 2-d")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"row counts differ: {X.shape[0]} vs {Y.shape[0]}")
    if X.shape[0] < X.shape[1]:
        logger.warning(
            "only %d anchor rows for dimension %d: rank-deficient fit",
            X.shape[0], X.shape[1],
        )
    u, _, vt = np.linalg.svd(X.T @ Y, full_matrices=False)
    q = u @ vt
    residual = float(np.linalg.norm(X @ q - Y))
    return OrthogonalMap(q, X.shape[0], residual)


def align_baseline(
    semantic: EmbeddingMatrix, domain: EmbeddingMatrix
) -> tuple[EmbeddingMatrix, OrthogonalMap]:
    """Aligned domain vectors for exactly the domain tokens missing from semantic."""
    anchors = find_anchors(semantic, domain)
    if len(anchors) == 0:
        raise ValueError("alignment needs at least one anchor pair")
    q = fit_alignment(
        domain.vectors[anchors.domain_rows()],
        semantic.vectors[anchors.semantic_rows()],
    )
    oov_tokens = [t for t in domain.tokens if t not in semantic]
    mapped = domain.vectors[[domain.row_index(t) for t in oov_tokens]] @ q.matrix
    return EmbeddingMatrix(oov_tokens, mapped), q


def write_map(q: OrthogonalMap, path: str) -> None:
    """Plain-text matrix dump for audit: one row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {q.matrix.shape[0]} x {q.matrix.shape[1]}, "
                 f"fit on {q.anchor_count} anchors, residual {q.residual!r}\n")
        for row in q.matrix:
            fh.write(" ".join(str(float(v)) for v in row) + "\n")
