"""Scale guards: from n to 4n, each stage's traced memory peak grows linearly.

A stage that holds fixed buffers F (knn_mst's distance blocks of about
_BLOCK_BYTES plus twice that in temporaries, impute's column blocks of about
_BLOCK_BYTES) and arrays of O(n) or O(n·k) entries (the kNN lists, the CSR
rows, the sampler's copy of them, the walks) peaks at F + a·n, so from n to 4n its peak
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


def test_knn_mst_peak_rises_by_its_row_and_knn_arrays():
    # The ratio above lets an O(n^2) array below about 11 MB at 4n pass (an
    # n x n bool, say), because knn_mst's peak at n is mostly fixed distance
    # blocks. So bound the rise itself. knn_mst peaks in the kNN search, where
    # it holds three blocks that do not grow with n (the last block, the next
    # one and its temporary) and, per row, the squared norms (8 B) and the copy
    # of the d-dimensional rows that numpy may make for a block product (8·d B),
    # and per kNN entry the lists near (int32) and near_sq (float64), 12 B.
    # The later steps (Borůvka, the CSR union) peak lower at these n: about
    # 1.1 MB at 2,000 rows. Each constant is doubled for numpy's temporaries.
    n = 500
    row_bytes, entry_bytes = 2 * 8 * (1 + _cloud(n).dim), 2 * (4 + 8)
    _knn_mst(40)()
    small, large = _traced_peak(_knn_mst(n)), _traced_peak(_knn_mst(4 * n))
    assert large - small <= 3 * n * (row_bytes + K * entry_bytes), (small, large)


@pytest.mark.parametrize("n", [800, 3200])
def test_walk_sampler_memory_per_adjacency_entry(n):
    # the sampler copies the CSR into two arrays of 8 B per entry and lists the
    # walk start nodes (about 7 B per entry here); one Python object per node,
    # a set or a numpy view, would take over 100 B per entry
    graph, cfg = _hub_graph(n), WalkConfig()
    build_transition_tables(_hub_graph(40), cfg)
    peak = _traced_peak(lambda: build_transition_tables(graph, cfg))
    assert peak <= 32 * (len(graph.indptr) + len(graph.indices)), peak
