"""Non-negative least squares: a thin wrapper over scipy's Lawson-Hanson solver.

Solves min ||A x - b||_2 subject to x >= 0. Problem sizes here are tiny
(one column per graph neighbor, typically a few dozen), so an exact
active-set solve beats iterative methods. ``scipy.optimize`` is imported on
the first call, not at ``import lsimpute``: it costs about 0.2 s and 20 MB
resident, which every command that never imputes would pay for nothing.
"""

from __future__ import annotations

import numpy as np


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative x minimizing ||A x - b|| (Lawson-Hanson active set, to KKT).

    Raises ValueError on malformed or non-finite input, and RuntimeError if
    the solver hits its iteration cap (3 × columns); it never returns a
    partial solution.
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
    from scipy.optimize import nnls as lawson_hanson

    x, _ = lawson_hanson(A, b)
    return x
