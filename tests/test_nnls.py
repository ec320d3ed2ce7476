from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lsimpute
from lsimpute import EmbeddingMatrix, nnls, write_embeddings

from conftest import write_pipeline_fixture
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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kkt_conditions_on_small_random_problems(data):
    # x >= 0, the gradient g = Aᵀ(Ax − b) is >= 0 up to rounding, and x·g = 0
    # up to rounding: the KKT conditions that make x optimal
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 6))
    values = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    A = data.draw(hnp.arrays(np.float64, (m, n), elements=values))
    b = data.draw(hnp.arrays(np.float64, m, elements=values))
    x = nnls(A, b)
    assert (x >= 0).all()
    g = A.T @ (A @ x - b)
    scale = max(1.0, float(np.abs(x).max()))
    tol = 1e-5 * max(1.0, float(np.abs(b).max())) * scale
    assert g.min() >= -tol
    assert np.abs(x * g).max() <= tol * scale


def test_rank_deficient_problem_reaches_the_optimum():
    # repeated rows: scipy's Lawson-Hanson stops at about [0, 0.225, 0.307]
    # here, where the gradient is positive on both positive entries
    A = np.array([[0.0, 0.5, 0.75], [0.75, 0.75, 0.75], [0.75, 0.75, 0.75], [0.75, 0.75, 0.75]])
    b = np.array([0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(nnls(A, b), [4 / 9, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(projected_gradient_nnls(A, b), [4 / 9, 0.0, 0.0], atol=1e-9)


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
            "loaded = [m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules]; "
            "sys.exit(', '.join(loaded) or None)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_only_impute_loads_scipy_sparse(tmp_path):
    paths = {name: str(path) for name, path in write_pipeline_fixture(tmp_path).items()}
    rng = np.random.default_rng(0)
    tokens = [f"term-{i:02d}" for i in range(20)]  # the fixture's labels as tokens
    for name, n in (("domain", 20), ("semantic", 10)):
        paths[name] = str(tmp_path / f"{name}.vec")
        write_embeddings(EmbeddingMatrix(tokens[:n], rng.standard_normal((n, 4))), paths[name])
    paths["terms"] = str(tmp_path / "terms.txt")
    Path(paths["terms"]).write_text("term-00\n")
    runs = [["extract-graph", "--dump", paths["dump"]],
            ["filter-corpus", "--corpus", paths["corpus"], "--terms", paths["terms"]],
            ["evaluate", "--embeddings", paths["domain"], "--dataset", paths["dataset"]],
            ["impute", "--semantic", paths["semantic"], "--domain", paths["domain"]]]
    runs = [["--config", paths["config"], *argv, "--out-dir", str(tmp_path / "out")]
            for argv in runs]
    # whether scipy.sparse is loaded after the import, then after each command
    code = ("import json, sys, lsimpute, lsimpute.cli\n"
            "loaded = ['scipy.sparse' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if lsimpute.cli.main(argv):\n"
            "        sys.exit(f'exit 1: {argv}')\n"
            "    loaded.append('scipy.sparse' in sys.modules)\n"
            "print(json.dumps(loaded))\n")
    src = Path(lsimpute.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [False, False, False, False, True]
