"""Independent checks on workload outputs.

Each check returns a list of failure messages; an empty list means the output
passed. The checks compare against references built by ``gen.py`` from numpy
and scipy, or against properties the method guarantees, never against a
stored copy of an earlier output. They take plain arrays and paths so the
self-test can hand them corrupted outputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import nnls as scipy_nnls
from scipy.sparse.linalg import splu

_STRIP = ".,;:!?()\"'[]"


def mean_cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a * b).sum(1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))))


def pair_cosine_r(imputed: np.ndarray, truth: np.ndarray) -> float:
    """Pearson r between the cosines of all row pairs in the two matrices."""
    def pair_cosines(x: np.ndarray) -> np.ndarray:
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        return (unit @ unit.T)[np.triu_indices(len(x), 1)]
    return float(np.corrcoef(pair_cosines(imputed), pair_cosines(truth))[0, 1])


def block_purity(vectors: np.ndarray, blocks: np.ndarray, k: int = 10) -> float:
    """Share of each row's k nearest rows (by cosine) that share its block."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    sim = unit @ unit.T
    np.fill_diagonal(sim, -np.inf)
    nearest = np.argpartition(-sim, k, axis=1)[:, :k]
    return float((blocks[nearest] == blocks[:, None]).mean())


# ---------------------------------------------------------------------------
# imputation

def check_imputation(tokens: list[str], vectors: np.ndarray, hidden: list[str],
                     ref_imputed: np.ndarray, hitting: np.ndarray, eta: float,
                     cos: float, baseline_cos: float) -> list[str]:
    """Imputed set, distance from the exact fixed point, and the baseline margin.

    The program stops once its last step is below ``eta`` in max-abs, so its
    residual is at most ``eta`` and its distance from the fixed point is at
    most ``eta * max((I - W_uu)^-1 1)``: that bound is the tolerance.
    """
    if sorted(tokens) != sorted(hidden):
        return [f"imputed {len(tokens)} tokens, expected the {len(hidden)} hidden ones"]
    failures = []
    order = {t: i for i, t in enumerate(tokens)}
    err = float(np.abs(vectors[[order[t] for t in hidden]] - ref_imputed).max())
    tol = eta * float(hitting.max()) * (1 + 1e-6) + 1e-9
    if not err <= tol:
        failures.append(f"max-abs distance {err:.3g} from the exact fixed point exceeds {tol:.3g}")
    if not cos >= baseline_cos + 0.2:
        failures.append(f"mean cosine {cos:.4f} does not beat the anchor mean {baseline_cos:.4f} by 0.2")
    return failures


def check_merge(base_tokens: list[str], base_vectors: np.ndarray, merged_tokens: list[str],
                merged_vectors: np.ndarray, added: list[str]) -> list[str]:
    n = len(base_tokens)
    failures = []
    if merged_tokens[:n] != base_tokens:
        failures.append("merged vocabulary does not start with the base vocabulary in order")
    elif merged_vectors[:n].tobytes() != np.ascontiguousarray(base_vectors).tobytes():
        bad = int(np.flatnonzero((merged_vectors[:n] != base_vectors).any(axis=1))[0])
        failures.append(f"merged row {bad} ({base_tokens[bad]!r}) differs from the input row")
    if sorted(merged_tokens[n:]) != sorted(added):
        failures.append(f"merge added {len(merged_tokens) - n} rows, expected {len(added)}")
    return failures


def exact_fixed_point(matrix: sp.csr_matrix, anchor_rows: np.ndarray, anchor_vectors: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve (I - W_uu) X_u = W_ua X_a; returns unknown rows, X_u and (I - W_uu)^-1 1."""
    n = matrix.shape[0]
    unknown = np.setdiff1d(np.arange(n), anchor_rows)
    w_u = matrix[unknown]
    lu = splu(sp.csc_matrix(sp.identity(len(unknown)) - w_u[:, unknown]))
    solved = lu.solve(np.asarray(w_u[:, anchor_rows] @ anchor_vectors))
    return unknown, solved, lu.solve(np.ones(len(unknown)))


def check_neighbor_graph(domain: np.ndarray, mst_edges: set, knn_edges: set,
                         neighbors: list[np.ndarray], k: int, ref_knn: np.ndarray,
                         ref_mst_weight: float, sample: np.ndarray) -> list[str]:
    failures = []
    edges = np.array(sorted(mst_edges))
    weight = float(np.linalg.norm(domain[edges[:, 0]] - domain[edges[:, 1]], axis=1).sum())
    if len(mst_edges) != len(domain) - 1 or abs(weight - ref_mst_weight) > 1e-9 * ref_mst_weight:
        failures.append(f"MST has {len(mst_edges)} edges and weight {weight!r}, "
                        f"scipy gives {len(domain) - 1} and {ref_mst_weight!r}")
    low = min(len(nb) for nb in neighbors)
    if low < k:
        failures.append(f"minimum degree {low} < k = {k}")
    for i in sample:
        expected = set(ref_knn[i].tolist()) | set(np.flatnonzero((ref_knn == i).any(axis=1)).tolist())
        got = {b if a == i else a for a, b in knn_edges if i in (a, b)}
        if got != expected:
            failures.append(f"kNN edges of row {i} differ from brute force "
                            f"({len(got ^ expected)} mismatches)")
            break
    return failures


def check_nnls_samples(samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> list[str]:
    """Optimality gap of the program's NNLS solutions against scipy's."""
    failures = []
    for a, b, x in samples:
        best, _ = scipy_nnls(a, b)
        f, f_best = float(np.sum((a @ x - b) ** 2)), float(np.sum((a @ best - b) ** 2))
        gap = (f - f_best) / max(f_best, 1e-12 * float(b @ b))
        if x.min() < 0 or gap > 1e-6:
            failures.append(f"NNLS solution has min {x.min():.3g} and relative gap {gap:.3g}")
            break
    return failures


def check_weights(matrix: sp.csr_matrix, anchor_rows) -> list[str]:
    failures = []
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    if np.abs(sums - 1).max() > 1e-12 or (matrix.data < 0).any():
        failures.append(f"weights not row-stochastic (worst row sum {sums[np.abs(sums - 1).argmax()]!r})")
    for i in anchor_rows:
        row = matrix.getrow(i)
        if row.nnz != 1 or row.indices[0] != i or row.data[0] != 1.0:
            failures.append(f"anchor row {i} is not the identity")
            break
    return failures


# ---------------------------------------------------------------------------
# walks and node vectors

def check_walks(walks: list[list[str]], node_of: dict[str, int], edges: set[tuple[int, int]],
                n_nodes: int, n_walks: int, length: int) -> list[str]:
    if len(walks) != n_walks * n_nodes:
        return [f"{len(walks)} walks, expected {n_walks} x {n_nodes}"]
    for w in walks:
        if len(w) != length:
            return [f"walk of length {len(w)}, expected {length}"]
        ids = [node_of[t] for t in w]
        for a, b in zip(ids, ids[1:]):
            if (min(a, b), max(a, b)) not in edges:
                return [f"walk step {w[0]}: {a} -> {b} is not an edge"]
    starts = sorted(node_of[w[0]] for w in walks)
    if starts != sorted(list(range(n_nodes)) * n_walks):
        return ["walks do not start n_walks times from every node"]
    return []


# ---------------------------------------------------------------------------
# CLI pipeline files

def naive_filter(lines: list[str], terms: set[str]) -> list[str]:
    """Keep a line unless a token, a token minus 's' or a token minus 'es' is a term."""
    kept = []
    for line in lines:
        hit = False
        for raw in line.lower().split():
            tok = raw.strip(_STRIP)
            if tok and (tok in terms or (tok[-1:] == "s" and tok[:-1] in terms)
                        or (tok[-2:] == "es" and tok[:-2] in terms)):
                hit = True
                break
        if not hit:
            kept.append(line)
    return kept


def vec_lines(path) -> tuple[int, list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return int(lines[0].split()[0]), lines[1:]


def check_pipeline_files(out, entry, dataset_terms: set[str]) -> list[str]:
    failures = []
    for name in ("nodes", "edges"):
        got = (out / f"{name}.tsv").read_bytes()
        if got != (entry / f"expected_{name}.tsv").read_bytes():
            failures.append(f"{name}.tsv differs from the planted subgraph")

    trained = set((out / "trained_vocab.txt").read_text(encoding="utf-8").split())
    imputed = set((out / "imputed_vocab.txt").read_text(encoding="utf-8").split())
    if trained & imputed or trained | imputed != dataset_terms or abs(len(trained) - len(imputed)) > 1:
        failures.append("trained/imputed split is not a balanced partition of the dataset terms")
    corpus = (entry / "corpus.txt").read_text(encoding="utf-8").splitlines()
    filtered = (out / "filtered_corpus.txt").read_text(encoding="utf-8").splitlines()
    if filtered != naive_filter(corpus, imputed):
        failures.append("filtered corpus differs from a naive token scan")

    n_base, base = vec_lines(out / "embeddings.vec")
    n_merged, merged = vec_lines(out / "merged.vec")
    _, domain = vec_lines(out / "domain_embeddings.vec")
    base_tokens = {line.split(" ", 1)[0] for line in base}
    missing = {line.split(" ", 1)[0] for line in domain} - base_tokens
    if merged[:n_base] != base:
        failures.append("merged.vec does not keep embeddings.vec byte-identical")
    added = [line.split(" ", 1)[0] for line in merged[n_base:]]
    if n_merged != len(merged) or sorted(added) != sorted(missing):
        failures.append(f"merged.vec adds {len(added)} tokens, expected the {len(missing)} missing ones")
    return failures
