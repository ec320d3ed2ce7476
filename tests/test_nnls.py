from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsimpute
from lsimpute import nnls

from oracles import projected_gradient_nnls


def test_exact_representation_orthogonal_columns():
    A = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    x = nnls(A, A[:, 1])
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)


def test_nonnegativity_binds_to_zero():
    A = np.array([[1.0], [2.0]])
    x = nnls(A, -A[:, 0])
    np.testing.assert_allclose(x, [0.0], atol=0)


def test_zero_rhs():
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (5, 3))
    np.testing.assert_allclose(nnls(A, np.zeros(5)), np.zeros(3), atol=1e-12)


def test_matches_unconstrained_when_interior():
    # strictly positive unconstrained solution: NNLS must coincide with lstsq
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = rng.uniform(-1, 1, (8, 3))
        x_true = rng.uniform(0.5, 2.0, 3)
        b = A @ x_true
        x = nnls(A, b)
        np.testing.assert_allclose(x, x_true, atol=1e-8)


def test_residual_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        A = rng.uniform(-1, 1, (6, 3))
        b = rng.uniform(-1, 1, 6)
        x = nnls(A, b)
        assert (x >= 0).all()
        x_ref = projected_gradient_nnls(A, b)
        res = np.linalg.norm(A @ x - b)
        res_ref = np.linalg.norm(A @ x_ref - b)
        assert abs(res - res_ref) < 1e-8


def test_kkt_conditions_hold():
    rng = np.random.default_rng(5)
    for _ in range(50):
        A = rng.uniform(-1, 1, (10, 6))
        b = rng.uniform(-1, 1, 10)
        x = nnls(A, b)
        grad = A.T @ (A @ x - b)
        # active coordinates need nonnegative gradient, passive ones zero gradient
        assert grad[x == 0].min(initial=np.inf) > -1e-8
        assert np.abs(grad[x > 0]).max(initial=0.0) < 1e-8


def test_input_validation():
    with pytest.raises(ValueError, match="2-d"):
        nnls(np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="expected"):
        nnls(np.ones((3, 2)), np.ones(4))


def _check_against_oracle(A, b):
    x = nnls(A, b)
    assert x.shape == (A.shape[1],) and (x >= 0).all()
    x_ref = projected_gradient_nnls(A, b)
    scale = max(1.0, float(np.linalg.norm(b)))
    assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ x_ref - b) + 1e-8 * scale
    grad = A.T @ (A @ x - b)
    tol = 1e-8 * scale * max(1.0, float(np.abs(A).max()))
    assert grad[x == 0].min(initial=np.inf) > -tol
    assert np.abs(grad[x > 0]).max(initial=0.0) < tol


def test_workload_shapes_match_oracle_and_kkt():
    rng = np.random.default_rng(72)
    # a row of the weight solve: 200-d vector against 72 neighbor vectors near it
    center = rng.standard_normal(200)
    A = (center[:, None] + 0.3 * rng.standard_normal((200, 72))) / 3.0
    _check_against_oracle(A, center / 3.0 + 0.05 * rng.standard_normal(200))
    # wide: fewer equations than columns
    for _ in range(5):
        _check_against_oracle(rng.uniform(-1, 1, (6, 15)), rng.uniform(-1, 1, 6))
    # duplicate columns
    A = rng.uniform(-1, 1, (12, 5))
    _check_against_oracle(A[:, [0, 1, 1, 2, 3, 3, 4]], rng.uniform(-1, 1, 12))
    # zero right-hand side at the workload shape
    np.testing.assert_array_equal(nnls(rng.standard_normal((200, 72)), np.zeros(200)), np.zeros(72))


def test_iteration_cap_raises_instead_of_partial_solution(monkeypatch):
    import scipy.optimize

    real = scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls", lambda A, b: real(A, b, maxiter=1))
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (10, 6))
    b = A @ rng.uniform(0.5, 1.0, 6)  # needs every column, so more than one iteration
    with pytest.raises(RuntimeError, match="[Ii]teration"):
        nnls(A, b)


def test_import_leaves_scipy_optimize_unloaded():
    src = Path(lsimpute.__file__).resolve().parent.parent
    code = ("import sys, lsimpute, lsimpute.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
