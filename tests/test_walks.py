from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsimpute import LabeledGraph, WalkConfig, build_transition_tables, generate_walks
from lsimpute.walks import WalkSampler, _single_walk, _weight, node_tokens, read_corpus, write_corpus

from oracles import second_order_walks


def _triangle() -> LabeledGraph:
    return LabeledGraph(["a", "b", "c"], ["A", "B", "C"], {(0, 1), (1, 2), (0, 2)})


def _graph(n: int, edges: set[tuple[int, int]]) -> LabeledGraph:
    ids = [f"n{i}" for i in range(n)]
    return LabeledGraph(ids, ids, edges)


def _path(n: int) -> LabeledGraph:
    return _graph(n, {(i, i + 1) for i in range(n - 1)})


def _directed_edges(g: LabeledGraph) -> list[tuple[int, int]]:
    return [e for i, j in g.edges.tolist() for e in ((i, j), (j, i))]


def transition_probabilities(s: WalkSampler, t: int, v: int) -> np.ndarray:
    """The sampler's normalized step distribution over v's neighbors for state (t -> v)."""
    nbrs = s.indices[s.indptr[v]:s.indptr[v + 1]].tolist()
    if t not in nbrs:
        raise ValueError(f"{t} is not a neighbor of {v}")
    weights = np.array([_weight(s, t, x) for x in nbrs])
    return weights / weights.sum()


def _three_case_rule(g: LabeledGraph, t: int, v: int, p: float, q: float) -> np.ndarray:
    """Written out from the node2vec definition, independent of the sampler."""
    adjacent = {frozenset(e) for e in g.edges.tolist()}
    nbrs = sorted(x for x in range(g.n_nodes) if frozenset((v, x)) in adjacent)
    weights = np.array([
        1.0 / p if x == t else 1.0 if frozenset((t, x)) in adjacent else 1.0 / q
        for x in nbrs
    ])
    return weights / weights.sum()


def test_unbiased_limit_is_uniform():
    cfg = WalkConfig(p=1.0, q=1.0, n_walks=1, walk_length=2)
    g = _triangle()
    sampler = build_transition_tables(g, cfg)
    for state in _directed_edges(g):
        probs = transition_probabilities(sampler, *state)
        np.testing.assert_allclose(probs, np.full(len(probs), 1.0 / len(probs)), atol=1e-12)


def test_triangle_second_order_weights():
    # from edge (a -> b): returning to a has weight 1/p = 2, c is adjacent to a so 1
    cfg = WalkConfig(p=0.5, q=2.0, n_walks=1, walk_length=2)
    sampler = build_transition_tables(_triangle(), cfg)
    probs = transition_probabilities(sampler, 0, 1)  # neighbors of b are [a, c]
    np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_second_order_distance_two_case():
    # path a-b-c: from (a -> b), c is at distance 2 from a, so weight 1/q
    cfg = WalkConfig(p=1.0, q=4.0, n_walks=1, walk_length=2)
    sampler = build_transition_tables(_path(3), cfg)
    probs = transition_probabilities(sampler, 0, 1)
    np.testing.assert_allclose(probs, [1.0 / 1.25, 0.25 / 1.25], atol=1e-12)


def test_transition_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    n = 12
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    edges |= {(i, i + 1) for i in range(n - 1)}
    g = LabeledGraph([str(i) for i in range(n)], [str(i) for i in range(n)], edges)
    sampler = build_transition_tables(g, WalkConfig(p=0.3, q=1.7, n_walks=1, walk_length=2))
    for state in _directed_edges(g):
        assert abs(transition_probabilities(sampler, *state).sum() - 1.0) < 1e-12


def test_transition_probabilities_need_an_edge():
    sampler = build_transition_tables(_path(3), WalkConfig())
    with pytest.raises(ValueError):
        transition_probabilities(sampler, 0, 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    bits=st.lists(st.booleans(), min_size=21, max_size=21),
    p=st.floats(1e-3, 1e3),
    q=st.floats(1e-3, 1e3),
)
def test_transition_probabilities_follow_three_case_rule(n, bits, p, q):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {pair for pair, keep in zip(pairs, bits) if keep} or {(0, 1)}
    g = _graph(n, edges)
    sampler = build_transition_tables(g, WalkConfig(p=p, q=q))
    for t, v in _directed_edges(g):
        probs = transition_probabilities(sampler, t, v)
        np.testing.assert_allclose(probs, _three_case_rule(g, t, v, p, q), rtol=1e-12)
        assert abs(probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.1, 10.0)])
def test_sampled_steps_match_transition_probabilities(p, q):
    # from state (0 -> 1), node 1 has a return neighbor 0, a common neighbor 2
    # (adjacent to 0) and a far neighbor 3
    g = _graph(4, {(0, 1), (1, 2), (0, 2), (1, 3)})
    sampler = build_transition_tables(g, WalkConfig(p=p, q=q))
    probs = transition_probabilities(sampler, 0, 1)
    np.testing.assert_allclose(probs, _three_case_rule(g, 0, 1, p, q), rtol=1e-12)
    rng = np.random.default_rng(1)
    walks = [_single_walk(sampler, 0, 3, rng) for _ in range(60_000)]
    steps = np.array([w[2] for w in walks if w[1] == 1])
    assert len(steps) > 25_000
    for x, prob in zip(sampler.indices[sampler.indptr[1]:sampler.indptr[2]], probs):
        freq = (steps == x).mean()
        sigma = np.sqrt(prob * (1 - prob) / len(steps))
        assert abs(freq - prob) < 3 * sigma


def test_unbiased_walks_match_uniform_walker():
    # at p = q = 1 every draw is accepted, so the walks equal those of a plain
    # uniform walker that draws a neighbor index and then one uniform per step
    rng = np.random.default_rng(5)
    n = 30
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15}
    g = _graph(n, edges | {(i, i + 1) for i in range(n - 1)})
    cfg = WalkConfig(p=1.0, q=1.0, n_walks=3, walk_length=20, seed=7)
    adjacency = [sorted(x for t, x in _directed_edges(g) if t == v) for v in range(n)]
    tokens = node_tokens(g)
    expected = []
    for walk_idx in range(cfg.n_walks):
        for node in range(n):
            walker = np.random.default_rng([cfg.seed, node, walk_idx])
            walk = [node]
            while len(walk) < cfg.walk_length:
                nbrs = adjacency[walk[-1]]
                walk.append(nbrs[walker.integers(len(nbrs))])
                walker.random()
            expected.append([tokens[i] for i in walk])
    assert generate_walks(build_transition_tables(g, cfg), g, cfg) == expected


@pytest.mark.parametrize("p, q", [(0.5, 0.5), (0.25, 4.0), (4.0, 0.25)])
@pytest.mark.parametrize("seed", [0, 1])
def test_biased_walks_match_second_order_oracle(p, q, seed):
    # random chords, hubs 0 and 1 each linked to every second node, and two
    # isolated nodes; the oracle tests adjacency in sets built from g.edges
    rng = np.random.default_rng(seed)
    n = 40
    edges = {(i, j) for i in range(n - 2) for j in range(i + 1, n - 2) if rng.random() < 0.05}
    g = _graph(n, edges | {(h, t) for h in (0, 1) for t in range(h + 2, n - 2, 2)})
    assert g.n_nodes - len(build_transition_tables(g, WalkConfig()).active_nodes) >= 2
    cfg = WalkConfig(p=p, q=q, n_walks=2, walk_length=25, seed=seed + 3)
    tokens = node_tokens(g)
    expected = second_order_walks(n, g.edges.tolist(), p, q, cfg.n_walks, cfg.walk_length, cfg.seed)
    walks = generate_walks(build_transition_tables(g, cfg), g, cfg)
    assert walks == [[tokens[i] for i in walk] for walk in expected]


def test_walk_count_and_length():
    g = _triangle()
    cfg = WalkConfig(n_walks=10, walk_length=7)
    walks = generate_walks(build_transition_tables(g, cfg), g, cfg)
    assert len(walks) == 10 * g.n_nodes
    assert all(len(w) == 7 for w in walks)


def test_walks_alternate_on_two_node_path():
    g = _path(2)
    cfg = WalkConfig(n_walks=3, walk_length=6)
    walks = generate_walks(build_transition_tables(g, cfg), g, cfg)
    for walk in walks:
        assert walk in (["n0", "n1"] * 3, ["n1", "n0"] * 3)


def test_walks_deterministic_given_seed():
    g = _triangle()
    cfg = WalkConfig(n_walks=5, walk_length=11, seed=99)
    sampler = build_transition_tables(g, cfg)
    assert generate_walks(sampler, g, cfg) == generate_walks(sampler, g, cfg)


def test_walk_tokens_are_normalized_labels():
    g = LabeledGraph(["x", "y"], ["Big Label", "Other THING"], {(0, 1)})
    cfg = WalkConfig(n_walks=1, walk_length=3)
    walks = generate_walks(build_transition_tables(g, cfg), g, cfg)
    tokens = {tok for walk in walks for tok in walk}
    assert tokens <= {"big-label", "other-thing"}


def test_label_collision_keeps_smallest_node_id():
    g = LabeledGraph(
        ["n2", "n1", "n3"], ["Shared Label", "shared label", "Unique"],
        {(0, 1), (1, 2)},
    )
    tokens = node_tokens(g)
    assert tokens[1] == "shared-label"          # n1 is the smallest colliding ID
    assert tokens[0] == "shared-label#n2"       # n2 loses the plain token
    assert tokens[2] == "unique"


def test_collision_suffix_with_whitespace_node_id_is_rejected():
    # "n2 b" loses "shared-label" to "n1"; its suffixed token would hold a space
    g = LabeledGraph(["n2 b", "n1"], ["Shared Label", "shared label"], {(0, 1)})
    with pytest.raises(ValueError, match="node 'n2 b' .*'shared-label#n2 b'"):
        node_tokens(g)


def test_isolated_nodes_excluded():
    g = LabeledGraph(["a", "b", "c"], ["a", "b", "c"], {(0, 1)})
    cfg = WalkConfig(n_walks=4, walk_length=3)
    sampler = build_transition_tables(g, cfg)
    assert sampler.active_nodes == [0, 1]
    walks = generate_walks(sampler, g, cfg)
    assert len(walks) == 8
    assert all("c" not in w for w in walks)


def test_corpus_roundtrip(tmp_path):
    corpus = [["a", "b"], ["c"], ["x-y", "z"]]
    p = tmp_path / "walks.txt"
    write_corpus(corpus, str(p))
    assert read_corpus(str(p)) == corpus


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(p=0.0)
    with pytest.raises(ValueError):
        WalkConfig(walk_length=1)
    with pytest.raises(ValueError):
        WalkConfig(q=float("inf"))
    with pytest.raises(ValueError):
        WalkConfig(p=float("nan"))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        WalkConfig(seed=-1)
