"""Non-negative least squares: a thin wrapper over scipy's Lawson-Hanson solver.

Solves min ||A x - b||_2 subject to x >= 0, and checks the KKT conditions of
the result. Problem sizes here are tiny
(one column per graph neighbor, typically a few dozen), so an exact
active-set solve beats iterative methods. ``scipy.optimize`` is imported on
the first call, not at ``import lsimpute``: it costs about 0.2 s and 20 MB
resident, which every command that never imputes would pay for nothing.
"""

from __future__ import annotations

import numpy as np


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative x minimizing ||A x - b|| (Lawson-Hanson active set, to KKT).

    A result that fails the KKT conditions is solved again by BVLS. Raises
    ValueError on malformed or non-finite input, and RuntimeError if the
    solver hits its iteration cap (3 × columns) or no result is optimal; it
    never returns a partial solution.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-d, got shape {A.shape}")
    m, n = A.shape
    if n < 1:
        raise ValueError("A needs at least one column")
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    from scipy.optimize import lsq_linear, nnls as lawson_hanson

    x, _ = lawson_hanson(A, b)
    if not _is_optimal(A, b, x):
        # scipy's solver can stop at a non-optimal point on rank-deficient A
        # (repeated rows). BVLS is a second, independent active-set method; it
        # solves A and b scaled by a power of two (exact, and x is unchanged)
        # so that A's largest entry is about 1 and no square under- or overflows
        scale = np.ldexp(1.0, -np.frexp(np.abs(A).max())[1])
        A, b = A * scale, b * scale
        x = lsq_linear(A, b, bounds=(0.0, np.inf), method="bvls").x
        if not _is_optimal(A, b, x):
            raise RuntimeError("NNLS found no point that meets the optimality conditions")
    return x


def _is_optimal(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> bool:
    """KKT conditions up to rounding: x >= 0, the gradient g = Aᵀ(Ax − b) is
    >= 0 where x is 0 and 0 where x is positive."""
    g = (A @ x - b) @ A
    a = np.abs(A).max(initial=0.0)
    tol = 1e-6 * a * (a * max(1.0, x.max()) + np.abs(b).max(initial=0.0))
    return bool(x.min() >= 0 and g.min() >= -tol and np.abs(g[x > 0]).max(initial=0.0) <= tol)
