from __future__ import annotations

import gzip

import numpy as np
import pytest

from lsimpute import (
    ExtractionConfig,
    LabeledGraph,
    connected_components,
    degree_stats,
    extract_subgraph,
    parse_ntriples,
)
from lsimpute.graph import read_graph_tsv, write_graph_tsv, parse_ntriples_file

from oracles import transitive_closure_components

TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def test_parse_iri_triple():
    ts = parse_ntriples(["<a> <p> <b> ."])
    assert len(ts) == 1
    t = ts.triples[0]
    assert (t.subject, t.predicate, t.obj, t.is_literal) == ("a", "p", "b", False)


def test_parse_literal_triple():
    ts = parse_ntriples(['<a> <rdfs:label> "Aspirin" .'])
    t = ts.triples[0]
    assert t.obj == "Aspirin" and t.is_literal


def test_parse_typed_and_tagged_literals():
    ts = parse_ntriples([
        '<a> <p> "2021"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
        '<a> <p> "Aspirin"@en .',
        '<a> <p> "escaped \\"x\\"" .',
    ])
    assert [t.obj for t in ts.triples] == ["2021", "Aspirin", 'escaped "x"']


def test_parse_escaped_backslash_before_n_is_not_a_newline():
    ts = parse_ntriples(['<a> <p> "a\\\\nb" .'])
    assert ts.triples[0].obj == "a\\nb"  # a, backslash, n, b


def test_parse_unicode_escapes():
    ts = parse_ntriples([
        '<a> <p> "Sj\\u00F6gren" .',
        '<a> <p> "clef \\U0001D11E" .',
        '<a> <p> "tab\\there\\r\\n\\b\\f\\\'" .',
    ])
    assert [t.obj for t in ts.triples] == ["Sjögren", "clef \U0001D11E", "tab\there\r\n\b\f'"]


def test_parse_unknown_escape_kept_as_written():
    ts = parse_ntriples(['<a> <p> "x\\qy \\u00G1" .'])
    assert ts.triples[0].obj == "x\\qy \\u00G1"


def test_parse_skips_garbage_with_count():
    ts = parse_ntriples(["<a> <p> <b> .", "complete garbage", "# comment", ""])
    assert len(ts) == 1
    assert ts.skipped == 1


def test_parse_gzip_file(tmp_path):
    p = tmp_path / "dump.nt.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("<a> <p> <b> .\n<b> <q> <c> .\n")
    ts = parse_ntriples_file(str(p))
    assert len(ts) == 2


def _mesh_like_triples():
    # 1 descriptor connected to 2 concepts, 1 unrelated concept, 1 other-typed node
    lines = [
        f"<d1> <{TYPE}> <Descriptor> .",
        f'<d1> <{LABEL}> "Aspirin Compound" .',
        f"<c1> <{TYPE}> <Concept> .",
        f'<c1> <{LABEL}> "Aspirin" .',
        f"<c2> <{TYPE}> <Concept> .",
        f'<c2> <{LABEL}> "Acetylsalicylic Acid" .',
        f"<c3> <{TYPE}> <Concept> .",
        f'<c3> <{LABEL}> "Unrelated" .',
        f"<q1> <{TYPE}> <Qualifier> .",
        f'<q1> <{LABEL}> "Qualifier Node" .',
        "<d1> <rel> <c1> .",
        "<c2> <rel> <d1> .",
        "<q1> <rel> <d1> .",
        "<c3> <rel> <q1> .",
    ]
    return parse_ntriples(lines)


def test_extract_bridge_rule():
    cfg = ExtractionConfig({"Descriptor"}, {"Concept"}, LABEL)
    g = extract_subgraph(_mesh_like_triples(), cfg)
    assert sorted(g.node_ids) == ["c1", "c2", "d1"]
    assert g.n_edges == 2


def test_extract_collapses_directions():
    lines = [
        f"<a> <{TYPE}> <T> .",
        f'<a> <{LABEL}> "A" .',
        f"<b> <{TYPE}> <T> .",
        f'<b> <{LABEL}> "B" .',
        "<a> <p> <b> .",
        "<b> <q> <a> .",
    ]
    g = extract_subgraph(parse_ntriples(lines), ExtractionConfig({"T"}, set(), LABEL))
    assert g.n_edges == 1


def test_extract_drops_unlabeled_nodes():
    lines = [
        f"<a> <{TYPE}> <T> .",
        f'<a> <{LABEL}> "A" .',
        f"<b> <{TYPE}> <T> .",
        "<a> <p> <b> .",
    ]
    g = extract_subgraph(parse_ntriples(lines), ExtractionConfig({"T"}, set(), LABEL))
    assert g.node_ids == ["a"]
    assert g.n_edges == 0


def test_extract_deterministic():
    cfg = ExtractionConfig({"Descriptor"}, {"Concept"}, LABEL)
    g1 = extract_subgraph(_mesh_like_triples(), cfg)
    g2 = extract_subgraph(_mesh_like_triples(), cfg)
    assert g1.node_ids == g2.node_ids and g1.edges == g2.edges


def test_extract_edge_count_bounded_by_triples():
    ts = _mesh_like_triples()
    cfg = ExtractionConfig({"Descriptor"}, {"Concept"}, LABEL)
    assert extract_subgraph(ts, cfg).n_edges <= len(ts)


def test_config_requires_node_types():
    with pytest.raises(ValueError, match="non-empty"):
        ExtractionConfig(set())


def test_components_path_graph():
    g = LabeledGraph(["a", "b", "c"], ["a", "b", "c"], {(0, 1), (1, 2)})
    assert connected_components(g) == [[0, 1, 2]]


def test_components_isolated_nodes():
    g = LabeledGraph(["a", "b"], ["a", "b"], set())
    assert connected_components(g) == [[0], [1]]


def test_components_match_transitive_closure_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 64))
        edges = set()
        for _ in range(int(rng.integers(0, 2 * n))):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        g = LabeledGraph([str(i) for i in range(n)], [str(i) for i in range(n)], edges)
        assert connected_components(g) == transitive_closure_components(n, edges)


def test_degree_stats_triangle():
    g = LabeledGraph(["a", "b", "c"], ["a", "b", "c"], {(0, 1), (1, 2), (0, 2)})
    s = degree_stats(g)
    assert (s.min_degree, s.max_degree, s.mean_degree) == (2, 2, 2.0)
    assert (s.n_nodes, s.n_edges) == (3, 3)


def test_degree_stats_star():
    g = LabeledGraph(list("abcde"), list("abcde"), {(0, 1), (0, 2), (0, 3), (0, 4)})
    assert sorted(g.degrees()) == [1, 1, 1, 1, 4]


def test_graph_tsv_roundtrip(tmp_path):
    g = LabeledGraph(["n1", "n2", "n3"], ["Alpha Beta", "Gamma", "Delta"], {(0, 1), (1, 2)})
    write_graph_tsv(g, str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    back = read_graph_tsv(str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    assert back.node_ids == g.node_ids
    assert back.labels == g.labels
    assert back.edges == g.edges


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph(["a", "b"], ["a", "b"], {(1, 1)})
