from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from lsimpute import EmbeddingMatrix


@dataclass
class SharedLatentBenchmark:
    """Two spaces generated from one latent structure, with held-out truth.

    Latent points z (n x latent_dim) map to a semantic space via a random
    matrix and to a domain space via another; small noise keeps the manifolds
    from being exact. A subset of semantic rows is hidden, so imputation
    quality can be scored against known ground truth.
    """

    semantic: EmbeddingMatrix      # visible rows only
    domain: EmbeddingMatrix        # all rows
    hidden_tokens: list[str]
    hidden_truth: np.ndarray       # (n_hidden, dim) true semantic vectors


def make_shared_latent_benchmark(
    n: int = 500,
    latent_dim: int = 5,
    dim: int = 200,
    n_hidden: int = 150,
    noise: float = 0.01,
    seed: int = 7,
) -> SharedLatentBenchmark:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, latent_dim))
    to_semantic = rng.standard_normal((latent_dim, dim))
    to_domain = rng.standard_normal((latent_dim, dim))
    semantic_full = z @ to_semantic + noise * rng.standard_normal((n, dim))
    domain_full = z @ to_domain + noise * rng.standard_normal((n, dim))

    tokens = [f"t{i:04d}" for i in range(n)]
    hidden_idx = rng.choice(n, size=n_hidden, replace=False)
    hidden_mask = np.zeros(n, dtype=bool)
    hidden_mask[hidden_idx] = True

    visible_tokens = [t for t, h in zip(tokens, hidden_mask) if not h]
    hidden_tokens = [t for t, h in zip(tokens, hidden_mask) if h]
    return SharedLatentBenchmark(
        semantic=EmbeddingMatrix(visible_tokens, semantic_full[~hidden_mask]),
        domain=EmbeddingMatrix(tokens, domain_full),
        hidden_tokens=hidden_tokens,
        hidden_truth=semantic_full[hidden_mask],
    )


@pytest.fixture(scope="session")
def shared_latent_benchmark() -> SharedLatentBenchmark:
    return make_shared_latent_benchmark()


def random_embedding(n: int, dim: int, rng: np.random.Generator, prefix: str = "w") -> EmbeddingMatrix:
    return EmbeddingMatrix(
        [f"{prefix}{i}" for i in range(n)], rng.standard_normal((n, dim))
    )


def weight_row(w, i: int) -> list[tuple[int, float]]:
    """(column, weight) pairs of row i of a WeightMatrix, read from its CSR arrays."""
    lo, hi = w.matrix.indptr[i], w.matrix.indptr[i + 1]
    return list(zip(w.matrix.indices[lo:hi].tolist(), w.matrix.data[lo:hi].tolist()))


RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def write_pipeline_fixture(root: Path, n_terms: int = 20, seed: int = 5) -> dict[str, Path]:
    """Small consistent world for end-to-end runs: a typed RDF dump whose node
    labels double as corpus tokens, a sentence corpus that co-mentions ring
    neighbors, and a scored word-pair dataset over the same terms."""
    rng = np.random.default_rng(seed)
    terms = [f"term {i:02d}" for i in range(n_terms)]
    tokens = [t.replace(" ", "-") for t in terms]

    # ring plus skip-2 chords, typed like a concept graph
    lines = []
    for i, (term, _) in enumerate(zip(terms, tokens)):
        lines.append(f"<node{i:02d}> <{RDF_TYPE}> <ConceptType> .")
        lines.append(f'<node{i:02d}> <{RDFS_LABEL}> "{term}" .')
    for i in range(n_terms):
        lines.append(f"<node{i:02d}> <linked> <node{(i + 1) % n_terms:02d}> .")
        lines.append(f"<node{i:02d}> <linked> <node{(i + 2) % n_terms:02d}> .")
    dump = root / "graph.nt"
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")

    fillers = ["studies", "report", "shows", "links", "with", "higher", "levels"]
    sentences = []
    for i in range(n_terms):
        for j in (i + 1, i + 2):
            for _ in range(8):
                noise = list(rng.choice(fillers, size=3))
                sentences.append(
                    f"{tokens[i]} {noise[0]} {noise[1]} {tokens[j % n_terms]} {noise[2]}"
                )
    rng.shuffle(sentences)
    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(sentences) + "\n", encoding="utf-8")

    rows = ["Term1,Term2,Similarity,Relatedness"]
    for i in range(n_terms):
        for step in (1, 3, 7):
            j = (i + step) % n_terms
            ring_dist = min(step, n_terms - step)
            score = max(0.0, 1500.0 - 140.0 * ring_dist + float(rng.uniform(-40, 40)))
            rows.append(f"{terms[i]},{terms[j]},{score:.2f},{min(score + 50, 1600):.2f}")
    dataset = root / "pairs.csv"
    dataset.write_text("\n".join(rows) + "\n", encoding="utf-8")

    config = {
        "sgns_text": {"dim": 16, "window": 3, "epochs": 3, "negative": 4,
                      "alpha": 0.05, "sample": 0.0, "min_count": 2, "seed": 3},
        "sgns_graph": {"dim": 16, "window": 3, "epochs": 3, "negative": 4,
                       "alpha": 0.05, "sample": 0.0, "min_count": 1, "seed": 4},
        "walks": {"p": 0.5, "q": 0.5, "n_walks": 5, "walk_length": 10, "seed": 2},
        "lsi": {"k": 3, "eta": 1e-4},
        "extraction": {"node_types": ["ConceptType"]},
        "evaluate": {"resamples": 50, "seed": 0, "split_seed": 1},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"dump": dump, "corpus": corpus, "dataset": dataset, "config": config_path}
