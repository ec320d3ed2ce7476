from __future__ import annotations

import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsimpute import (
    ExtractionConfig,
    LabeledGraph,
    degree_stats,
    extract_subgraph,
    parse_ntriples,
)
from lsimpute.graph import read_graph_tsv, write_graph_tsv, parse_ntriples_file

from oracles import reference_extraction, set_adjacency

TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def _rows(ts) -> list[tuple[str, str, str, bool]]:
    """Each parsed triple as (subject, predicate, object, object is a literal)."""
    return [(*(ts.terms[t] for t in row), bool(lit))
            for row, lit in zip(ts.triples.tolist(), ts.is_literal)]


def test_parse_iri_triple():
    ts = parse_ntriples(["<a> <p> <b> ."])
    assert len(ts) == 1
    assert _rows(ts) == [("a", "p", "b", False)]


def test_parse_literal_triple():
    ts = parse_ntriples(['<a> <rdfs:label> "Aspirin" .'])
    assert _rows(ts) == [("a", "rdfs:label", "Aspirin", True)]


def test_parse_typed_and_tagged_literals():
    ts = parse_ntriples([
        '<a> <p> "2021"^^<http://www.w3.org/2001/XMLSchema#gYear> .',
        '<a> <p> "Aspirin"@en .',
        '<a> <p> "escaped \\"x\\"" .',
    ])
    assert [obj for _, _, obj, _ in _rows(ts)] == ["2021", "Aspirin", 'escaped "x"']


def test_parse_escaped_backslash_before_n_is_not_a_newline():
    ts = parse_ntriples(['<a> <p> "a\\\\nb" .'])
    assert _rows(ts)[0][2] == "a\\nb"  # a, backslash, n, b


def test_parse_unicode_escapes():
    ts = parse_ntriples([
        '<a> <p> "Sj\\u00F6gren" .',
        '<a> <p> "clef \\U0001D11E" .',
        '<a> <p> "tab\\there\\r\\n\\b\\f\\\'" .',
    ])
    assert [obj for _, _, obj, _ in _rows(ts)] == ["Sjögren", "clef \U0001D11E", "tab\there\r\n\b\f'"]


def test_parse_unknown_escape_kept_as_written():
    ts = parse_ntriples(['<a> <p> "x\\qy \\u00G1" .'])
    assert _rows(ts)[0][2] == "x\\qy \\u00G1"


def test_parse_skips_garbage_with_count():
    ts = parse_ntriples(["<a> <p> <b> .", "complete garbage", "# comment", ""])
    assert len(ts) == 1
    assert ts.skipped == 1


def test_parse_counts_blank_node_lines_apart_from_malformed():
    ts = parse_ntriples([
        "<a> <p> <b> .",
        "_:b0 <p> <a> .",
        "<a> <p> _:b1 .",
        '_:b0 <p> "literal"@en .',
        "<a> _:b2 <b> .",  # a blank node cannot be a predicate
        "_:b0 <p> .",
    ])
    assert _rows(ts) == [("a", "p", "b", False)]
    assert (ts.blank_node_lines, ts.skipped) == (3, 2)


def test_parse_empty_input_extracts_empty_graph():
    ts = parse_ntriples(["# only a comment", "_:b0 <p> <a> ."])
    assert len(ts) == 0 and ts.blank_node_lines == 1
    g = extract_subgraph(ts, ExtractionConfig({"T"}))
    assert g.n_nodes == 0 and g.n_edges == 0


_ECHAR_OF = {"\t": "\\t", "\b": "\\b", "\n": "\\n", "\r": "\\r", "\f": "\\f",
             '"': '\\"', "'": "\\'", "\\": "\\\\"}
_MUST_ESCAPE = {'"', "\\", "\n", "\r"}


def _escape(text: str, forms: list[int]) -> str:
    """N-Triples string body for `text` (RDF 1.1 section 2.4): each character
    written raw, as an ECHAR, or as a UCHAR, by its entry of `forms`."""
    out = []
    for ch, form in zip(text, forms):
        options = [] if ch in _MUST_ESCAPE else [ch]
        if ch in _ECHAR_OF:
            options.append(_ECHAR_OF[ch])
        if ord(ch) <= 0xFFFF:
            options.append(f"\\u{ord(ch):04X}")
        options.append(f"\\U{ord(ch):08x}")
        out.append(options[form % len(options)])
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.characters(exclude_categories=("Cs",)), st.integers(0, 3))),
       st.sampled_from(["", "@en", "^^<http://www.w3.org/2001/XMLSchema#string>"]))
def test_parse_escape_round_trip(chars, suffix):
    text = "".join(ch for ch, _ in chars)
    body = _escape(text, [form for _, form in chars])
    ts = parse_ntriples([f'<s> <p> "{body}"{suffix} .\n'])
    assert ts.skipped == 0
    assert _rows(ts) == [("s", "p", text, True)]


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
    assert g1.node_ids == g2.node_ids and np.array_equal(g1.edges, g2.edges)


def test_extract_edge_count_bounded_by_triples():
    ts = _mesh_like_triples()
    cfg = ExtractionConfig({"Descriptor"}, {"Concept"}, LABEL)
    assert extract_subgraph(ts, cfg).n_edges <= len(ts)


def _random_dump(rng: np.random.Generator) -> list[tuple[str, str, str, bool]]:
    """Rows over few names, so types, labels and links collide: bridge types,
    repeated and conflicting labels, self-links, label rows with an IRI object,
    type rows with a literal object, literals spelled like IRIs, and types
    that are typed and labeled nodes themselves."""
    names = [f"n{i}" for i in range(int(rng.integers(2, 12)))]
    type_names = ["T", "U", "B", "C"]
    rows = []
    for _ in range(int(rng.integers(0, 60))):
        s = str(rng.choice(names + type_names))
        kind = rng.integers(0, 6)
        if kind == 0:
            rows.append((s, TYPE, str(rng.choice(type_names)), False))
        elif kind == 1:
            rows.append((s, LABEL, f"label {rng.integers(0, 3)}", True))
        elif kind == 2:  # the wrong kind of object for the predicate
            if rng.random() < 0.5:
                rows.append((s, TYPE, str(rng.choice(type_names)), True))
            else:
                rows.append((s, LABEL, str(rng.choice(names)), False))
        elif kind == 3:  # a literal that spells an IRI used elsewhere
            p = str(rng.choice(["rel", LABEL]))
            rows.append((s, p, str(rng.choice(names + type_names)), True))
        else:
            rows.append((s, str(rng.choice(["rel", "sub"])), str(rng.choice(names)), False))
    return rows


def _random_case(rng: np.random.Generator):
    """A `_random_dump`, its lines, an extraction config over its names, and
    `reference_extraction`'s node IDs, labels and edges for them."""
    rows = _random_dump(rng)
    lines = [f'<{s}> <{p}> "{o}" .' if lit else f"<{s}> <{p}> <{o}> ." for s, p, o, lit in rows]
    node_types = {str(t) for t in rng.choice(["T", "U", "X"], size=int(rng.integers(1, 3)))}
    bridge_types = set() if rng.random() < 0.3 else {"B", "C"}
    predicates = [(LABEL, TYPE), ("rel", TYPE), (LABEL, "sub")]
    label_predicate, type_predicate = predicates[int(rng.integers(0, len(predicates)))]
    cfg = ExtractionConfig(node_types, bridge_types, label_predicate, type_predicate)
    reference = reference_extraction(rows, node_types, bridge_types, label_predicate, type_predicate)
    return lines, cfg, reference


def _assert_graph(g, reference) -> None:
    node_ids, labels, edges = reference
    assert g.node_ids == node_ids
    assert g.labels == labels
    assert {(g.node_ids[i], g.node_ids[j]) for i, j in g.edges.tolist()} == edges


def test_extract_matches_reference_extraction():
    rng = np.random.default_rng(11)
    for _ in range(300):
        lines, cfg, reference = _random_case(rng)
        _assert_graph(extract_subgraph(parse_ntriples(lines), cfg), reference)


def test_two_pass_file_parse_extracts_the_same_graph(tmp_path):
    rng = np.random.default_rng(12)
    odd_lines = ["_:b0 <rel> <n0> .", '<n1> <sub> _:b1 .', "not a triple", "# comment", ""]
    for case in range(150):
        lines, cfg, reference = _random_case(rng)
        lines += odd_lines[: case % (len(odd_lines) + 1)]
        lines.append(f"_:b2 <{cfg.type_predicate}> <{min(cfg.node_types)}> .")  # a typed blank node
        full = parse_ntriples(lines)
        assert full.blank_node_lines == 1 + min(case % (len(odd_lines) + 1), 2)
        _assert_graph(extract_subgraph(full, cfg), reference)
        for path, opener in ((tmp_path / "dump.nt", open), (tmp_path / "dump.nt.gz", gzip.open)):
            with opener(path, "wt", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            kept = parse_ntriples_file(str(path), cfg)
            _assert_graph(extract_subgraph(kept, cfg), reference)
            assert (kept.skipped, kept.blank_node_lines) == (full.skipped, full.blank_node_lines)
            assert len(kept) + kept.unkept_lines == len(full)
            assert kept.row_filter.subjects <= set(full.terms)  # no blank node among them


def _dump_with_noise(path, n_noise: int) -> None:
    """Five labeled, linked descriptors, plus `n_noise` entry terms of another
    type, each with a label, a note, links to and from other names, and a
    note on one descriptor."""
    lines = []
    for d in range(5):
        lines += [f"<d{d}> <{TYPE}> <Descriptor> .", f'<d{d}> <{LABEL}> "Descriptor {d}" .',
                  f"<d{d}> <broader> <d{(d + 1) % 5}> ."]
    for t in range(n_noise):
        lines += [f"<t{t}> <{TYPE}> <Term> .", f'<t{t}> <{LABEL}> "term {t}" .',
                  f'<t{t}> <note> "scope note {t}" .', f"<d{t % 5}> <preferredTerm> <t{t}> .",
                  f"<t{t}> <related> <t{(t + 1) % n_noise}> .", f'<d{t % 5}> <note> "note {t}" .']
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_two_pass_parse_stores_no_more_for_more_untyped_terms(tmp_path):
    cfg = ExtractionConfig({"Descriptor"})
    sizes = []
    for n_noise in (10, 1000):
        path = tmp_path / f"dump{n_noise}.nt"
        _dump_with_noise(path, n_noise)
        tset = parse_ntriples_file(str(path), cfg)
        assert extract_subgraph(tset, cfg).n_edges == 5
        assert tset.unkept_lines == 6 * n_noise
        sizes.append((len(tset.terms), len(tset.triples)))
    assert sizes[0] == sizes[1]


def test_config_requires_node_types():
    with pytest.raises(ValueError, match="non-empty"):
        ExtractionConfig(set())


def test_degree_stats_triangle():
    g = LabeledGraph(["a", "b", "c"], ["a", "b", "c"], {(0, 1), (1, 2), (0, 2)})
    s = degree_stats(g)
    assert (s.min_degree, s.max_degree, s.mean_degree) == (2, 2, 2.0)
    assert (s.n_nodes, s.n_edges, s.isolated_nodes) == (3, 3, 0)


def test_degree_stats_star():
    g = LabeledGraph(list("abcde"), list("abcde"), {(0, 1), (0, 2), (0, 3), (0, 4)})
    assert sorted(g.degrees()) == [1, 1, 1, 1, 4]


def test_graph_tsv_roundtrip(tmp_path):
    g = LabeledGraph(["n1", "n2", "n3"], ["Alpha Beta", "Gamma", "Delta"], {(0, 1), (1, 2)})
    write_graph_tsv(g, str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    back = read_graph_tsv(str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    assert back.node_ids == g.node_ids
    assert back.labels == g.labels
    assert back.edges.tolist() == g.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("label", ["Heart\tAttack", "Lung\nCancer", "Carriage\rReturn"])
def test_graph_tsv_rejects_label_breaking_its_line(tmp_path, label):
    g = LabeledGraph(["n1", "n2"], ["Alpha", label], {(0, 1)})
    with pytest.raises(ValueError, match="'n2'"):
        write_graph_tsv(g, str(tmp_path / "nodes.tsv"), str(tmp_path / "edges.tsv"))
    assert not (tmp_path / "nodes.tsv").exists()


@pytest.mark.parametrize("labels, edges, message", [
    (["a", "b", "c"], {(1, 1)}, "self-loop on node index 1"),
    (["a", "b", "c"], {(0, 1), (2, 1)}, r"edge \(2,1\) out of range or unordered"),
    (["a", "b", "c"], [(0, 1), (1, 3)], r"edge \(1,3\) out of range or unordered"),
    (["a", "b", "c"], np.array([[-1, 2]]), r"edge \(-1,2\) out of range or unordered"),
    (["a", "b"], set(), "node_ids and labels length mismatch"),
], ids=["self-loop", "unordered", "index-too-large", "negative-index", "label-count"])
def test_graph_rejects_bad_edges_and_labels(labels, edges, message):
    with pytest.raises(ValueError, match=message):
        LabeledGraph(["a", "b", "c"], labels, edges)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 9),
    form=st.sampled_from([set, list, np.array]),
)
def test_edge_array_and_csr_match_set_oracle(data, n, form):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    pairs = data.draw(st.lists(pair, max_size=30)) if n > 1 else []
    pairs += pairs[: len(pairs) // 2]  # duplicates collapse
    g = LabeledGraph([str(i) for i in range(n)], [str(i) for i in range(n)], form(pairs))
    assert g.edges.shape == (len(set(pairs)), 2)
    assert g.edges.tolist() == [list(e) for e in sorted(set(pairs))]
    oracle = set_adjacency(n, pairs)
    assert [g.indices[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(n)] == oracle
    assert g.degrees().tolist() == [len(nbrs) for nbrs in oracle]
