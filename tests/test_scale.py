"""Scale guards: from n to 4n, each stage's traced memory peak grows linearly.

A stage that holds fixed buffers F (knn_mst's distance blocks of about
_BLOCK_BYTES plus twice that in temporaries, impute's column blocks of about
_BLOCK_BYTES) and arrays of O(n) or O(n·k) entries (the kNN lists, the CSR
rows, the neighbor sets, the walks) peaks at F + a·n, so from n to 4n its peak
grows at most 4×, whatever F is; an n × n array would grow 16×. Python lists
over-allocate by up to an eighth, hence the bound 4 · 9/8. numpy reports its
allocations to tracemalloc, so the peaks are deterministic.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from lsimpute import (EmbeddingMatrix, LabeledGraph, LsiConfig, WalkConfig,
                      build_transition_tables, find_anchors, generate_walks, impute, knn_mst,
                      solve_weights)

K = 10


def _cloud(n: int) -> EmbeddingMatrix:
    return EmbeddingMatrix([f"t{i}" for i in range(n)],
                           np.random.default_rng(0).standard_normal((n, 8)))


def _hub_graph(n: int) -> LabeledGraph:
    """A path with n random chords, and 4 hubs each linked to every tenth node."""
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, n, size=(2, n))
    spokes = [(h, t) for h in range(4) for t in range(h + 4, n, 10)]
    edges = np.concatenate([np.column_stack((np.arange(n - 1), np.arange(1, n))),
                            np.column_stack((np.minimum(a, b), np.maximum(a, b)))[a != b], spokes])
    return LabeledGraph([f"n{i}" for i in range(n)], [f"L{i}" for i in range(n)], edges)


def _knn_mst(n: int):
    domain = _cloud(n)
    return lambda: knn_mst(domain, K)


def _solve_weights(n: int):
    domain = _cloud(n)
    graph = knn_mst(domain, K)
    return lambda: solve_weights(domain, graph, set(range(0, n, 2)))


def _impute(n: int):
    domain = _cloud(n)
    anchors = set(range(0, n, 2))
    weights = solve_weights(domain, knn_mst(domain, K), anchors)
    semantic = EmbeddingMatrix([f"t{i}" for i in sorted(anchors)],
                               np.random.default_rng(1).standard_normal((len(anchors), 16)))
    amap = find_anchors(semantic, domain)
    return lambda: impute(weights, amap, semantic, list(domain.tokens), LsiConfig(k=K))


def _walks(n: int):
    graph, cfg = _hub_graph(n), WalkConfig(n_walks=1, walk_length=10)
    return lambda: generate_walks(build_transition_tables(graph, cfg), graph, cfg)


# each stage at its n: knn_mst's 4n stays under 4,096 rows, where a distance
# block is _BLOCK_BYTES at both sizes; the walks' n is well above 256, as
# Python ints up to 256 are cached and take no memory per reference
STAGES = {"knn_mst": (_knn_mst, 500), "solve_weights": (_solve_weights, 300),
          "impute": (_impute, 1000), "walks": (_walks, 800)}


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", STAGES)
def test_traced_peak_grows_linearly_from_n_to_4n(stage):
    build, n = STAGES[stage]
    build(40)()  # first-use imports, which tracemalloc would count, happen here
    small, large = _traced_peak(build(n)), _traced_peak(build(4 * n))
    assert large <= 4 * 9 / 8 * small, f"{stage}: {small} bytes at n={n}, {large} at 4n"
