"""Second-order biased random walks over a labeled graph.

Transition weights follow the three-case rule for a walk that moved t -> v
and now picks the next node x among v's neighbors: 1/p if x == t (return),
1 if x is adjacent to t, 1/q otherwise. Steps are drawn by rejection from
the adjacency itself (KnightKing, Yang et al., SOSP 2019): a neighbor drawn
uniformly is kept with probability weight / max(1/p, 1, 1/q). Memory is
O(n + m), and the expected number of draws per step is at most
max(1/p, 1, 1/q) / min(1/p, 1, 1/q), so 2 at p = q = 0.5 and 1 at p = q = 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import normalize_label
from .graph import LabeledGraph, open_maybe_gzip

logger = logging.getLogger(__name__)


@dataclass
class WalkConfig:
    p: float = 0.5  # return parameter
    q: float = 0.5  # inout parameter
    n_walks: int = 10
    walk_length: int = 80
    seed: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.p < math.inf and 0 < self.q < math.inf):  # NaN fails both
            raise ValueError(f"p and q must be finite and positive, got p={self.p} q={self.q}")
        if self.n_walks < 1:
            raise ValueError(f"n_walks must be >= 1, got {self.n_walks}")
        if self.walk_length < 2:
            raise ValueError(f"walk_length must be >= 2, got {self.walk_length}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class WalkSampler:
    """Adjacency that second-order steps are drawn from, and the three weights."""

    neighbors: list[np.ndarray]  # sorted neighbor indices per node, views into the CSR
    neighbor_sets: list[set[int]]
    active_nodes: list[int]  # nodes with degree >= 1, walk start points
    weights: tuple[float, float, float]  # (1/p, 1, 1/q): return, common neighbor, farther


def build_transition_tables(g: LabeledGraph, cfg: WalkConfig) -> WalkSampler:
    """Views into the graph's CSR adjacency and neighbor sets; no per-edge table is built."""
    if g.n_nodes == 0:
        raise ValueError("graph is empty")
    adj = np.split(g.indices, g.indptr[1:-1])
    active = np.flatnonzero(g.degrees()).tolist()
    if len(active) < g.n_nodes:
        logger.warning("%d isolated nodes excluded from walks", g.n_nodes - len(active))
    neighbor_sets = [set(nbrs.tolist()) for nbrs in adj]
    return WalkSampler(adj, neighbor_sets, active, (1.0 / cfg.p, 1.0, 1.0 / cfg.q))


def _weight(s: WalkSampler, t: int, x: int) -> float:
    """Unnormalized weight of stepping to x after the move t -> v (x a neighbor of v)."""
    if x == t:
        return s.weights[0]
    return s.weights[1] if x in s.neighbor_sets[t] else s.weights[2]


def _single_walk(s: WalkSampler, start: int, length: int, rng: np.random.Generator) -> list[int]:
    # Rejection step: draw a neighbor x uniformly, then u, and accept when
    # u * max(weights) < weight(prev, x); the first step accepts every draw.
    # Drawing both on every trial keeps p = q = 1 walks equal to a uniform walker's.
    bound = max(s.weights)
    walk = [start]
    prev = -1
    while len(walk) < length:
        nbrs = s.neighbors[walk[-1]]
        while True:
            nxt = int(nbrs[rng.integers(len(nbrs))])
            u = rng.random()
            if prev < 0 or u * bound < _weight(s, prev, nxt):
                break
        prev = walk[-1]
        walk.append(nxt)
    return walk


def node_tokens(g: LabeledGraph) -> list[str]:
    """Normalized label per node, one token per node.

    When two nodes normalize to the same token, the node with the
    lexicographically smallest ID keeps it; the others get a node-ID suffix
    so they stay distinct in the walk corpus (and never match a vocabulary
    downstream). Collisions are logged. A final token that is empty or holds
    whitespace, which no embedding file can hold, raises ValueError naming its node.
    """
    tokens = [normalize_label(label) for label in g.labels]
    owners: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if tok not in owners or g.node_ids[i] < g.node_ids[owners[tok]]:
            owners[tok] = i
    collisions = 0
    for i, tok in enumerate(tokens):
        if owners[tok] != i:
            tok = tokens[i] = f"{tok}#{g.node_ids[i]}"
            collisions += 1
        if tok.split() != [tok]:
            raise ValueError(f"node {g.node_ids[i]!r} (label {g.labels[i]!r}) gives the token "
                             f"{tok!r}, which is empty or holds whitespace")
    if collisions:
        logger.warning(
            "%d nodes share a normalized label with a smaller-ID node; "
            "their tokens carry a node-ID suffix", collisions,
        )
    return tokens


def generate_walks(s: WalkSampler, g: LabeledGraph, cfg: WalkConfig) -> list[list[str]]:
    """n_walks walks per non-isolated node, as normalized-label token sequences.

    Each walk draws from its own RNG stream keyed by (seed, node, walk index),
    so results do not depend on scheduling order.
    """
    tokens = node_tokens(g)
    corpus: list[list[str]] = []
    for walk_idx in range(cfg.n_walks):
        for node in s.active_nodes:
            rng = np.random.default_rng([cfg.seed, node, walk_idx])
            walk = _single_walk(s, node, cfg.walk_length, rng)
            corpus.append([tokens[i] for i in walk])
    return corpus


def write_corpus(corpus: list[list[str]], path: str) -> None:
    """One walk or sentence per line, space-separated tokens; gzipped when path ends in .gz."""
    with open_maybe_gzip(path, "wt") as fh:
        for sentence in corpus:
            fh.write(" ".join(sentence) + "\n")


def read_corpus(path: str) -> list[list[str]]:
    with open_maybe_gzip(path) as fh:
        return [line.split() for line in fh if line.strip()]
