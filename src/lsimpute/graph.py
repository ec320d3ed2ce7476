"""N-Triples parsing and typed-subgraph extraction into an undirected labeled graph.

The parser accepts the line-oriented N-Triples subset that RDF dumps are
commonly distributed in: ``<s> <p> <o> .`` and ``<s> <p> "literal" .``.
Malformed lines are skipped with a warning count rather than aborting, since
dump files are large and imperfect; lines with a blank node (``_:label``) as
subject or object are counted apart and skipped too. Parsed triples are kept
as integer columns over interned terms, so memory grows with the distinct
terms, not with the lines. Given an extraction config, a dump file is read
twice and only the rows extraction reads are kept, so memory grows with the
kept subgraph, not with the dump.
"""

from __future__ import annotations

import gzip
import logging
import re
import sys
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

logger = logging.getLogger(__name__)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"

_IRI = r"<([^<>\s]*)>"
# the unrolled form of "((?:[^"\\]|\\.)*)": the same groups, fewer backtracking steps
_LITERAL = r'"([^"\\]*(?:\\.[^"\\]*)*)"(?:\^\^<[^<>\s]*>|@[A-Za-z0-9-]+)?'
_TRIPLE_RE = re.compile(
    rf"^\s*{_IRI}\s+{_IRI}\s+(?:{_IRI}|{_LITERAL})\s*\.\s*$"
)
# a line that is a triple once blank nodes (_:label) may stand as subject or object
_BNODE = r"_:[^\s<>\"]+"
_BLANK_NODE_RE = re.compile(
    rf"^\s*(?:{_IRI}|{_BNODE})\s+{_IRI}\s+(?:{_IRI}|{_BNODE}|{_LITERAL})\s*\.\s*$"
)
# ECHAR and UCHAR of W3C RDF 1.1 N-Triples, section 2.4
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(?:([tbnrf\"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8}))")


def _decode_escape(m: re.Match) -> str:
    echar, u4, u8 = m.groups()
    if echar is not None:
        return _ECHARS[echar]
    code = int(u4 or u8, 16)
    return chr(code) if code <= sys.maxunicode else m.group(0)


def _unescape(literal: str) -> str:
    """Decode every escape in one left-to-right pass; unknown escapes stay as written."""
    if "\\" not in literal:
        return literal
    return _ESCAPE_RE.sub(_decode_escape, literal)


@dataclass(frozen=True)
class RowFilter:
    """The rows `extract_subgraph` reads of nodes typed in a first pass.

    A row is kept when its subject is in `subjects` and it is a type row (the
    type predicate with an IRI object), a label row (the label predicate with
    a literal object) or an IRI link to another of `subjects`. Extraction
    ignores every other row, or drops it as a link with an end never kept.
    """

    subjects: frozenset[str]
    type_predicate: str
    label_predicate: str


@dataclass(eq=False)  # array fields: == would compare element-wise
class TripleSet:
    """Parsed triples as columns over interned terms.

    Every distinct IRI or literal text is stored once in `terms`; row i of
    `triples` holds the term ids of triple i's subject, predicate and object,
    and `is_literal[i]` tells whether that object is a literal. An IRI and a
    literal with the same text share one id.
    """

    terms: list[str]
    triples: np.ndarray     # (m, 3) C int (int32): subject, predicate, object
    is_literal: np.ndarray  # (m,) bool
    skipped: int = 0        # malformed lines
    blank_node_lines: int = 0  # well-formed lines with a blank-node subject or object; not kept
    unkept_lines: int = 0   # other well-formed lines that `row_filter` did not keep
    row_filter: RowFilter | None = None  # None: every well-formed line was kept

    def __len__(self) -> int:
        return len(self.triples)


def parse_ntriples(lines: Iterable[str], keep: RowFilter | None = None) -> TripleSet:
    """Parse N-Triples-like lines; malformed lines are counted and skipped.

    Lines with a blank node as subject or object are counted apart, in
    `blank_node_lines`, and not kept, so a blank node never becomes a graph node.
    With `keep`, other well-formed rows it rejects are counted in
    `unkept_lines` and neither stored nor interned; without it, every one is kept.
    """
    term_ids: dict[str, int] = {}
    intern = term_ids.setdefault
    ids = array("i")
    is_literal = bytearray()
    skipped = blank = unkept = 0
    for lineno, line in enumerate(lines, start=1):
        m = _TRIPLE_RE.match(line)
        if m is None:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if _BLANK_NODE_RE.match(line):
                blank += 1
                continue
            skipped += 1
            if skipped <= 5:
                logger.warning("skipping malformed line %d: %s", lineno, stripped[:120])
            continue
        s, p, o, literal = m.groups()
        if keep is not None and not (s in keep.subjects and (
                (p == keep.type_predicate or o in keep.subjects) if literal is None
                else p == keep.label_predicate)):
            unkept += 1
            continue
        if o is None:
            o = _unescape(literal)
        is_literal.append(literal is not None)
        ids.extend((intern(s, len(term_ids)), intern(p, len(term_ids)), intern(o, len(term_ids))))
    if skipped:
        logger.warning("skipped %d malformed lines in total", skipped)
    if blank:
        logger.warning("skipped %d lines with a blank-node subject or object", blank)
    return TripleSet(
        list(term_ids),
        np.frombuffer(ids, dtype=np.intc).reshape(-1, 3),
        np.frombuffer(is_literal, dtype=np.bool_),
        skipped,
        blank,
        unkept,
        keep,
    )


def open_maybe_gzip(path: str, mode: str = "rt") -> TextIO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _typed_subjects(lines: Iterable[str], cfg: ExtractionConfig) -> frozenset[str]:
    """Subjects of the type rows that name one of cfg's node or bridge types."""
    needle = f"<{cfg.type_predicate}>"  # every type row holds it; the regex runs on those only
    types = cfg.node_types | cfg.bridge_types
    subjects = set()
    for line in lines:
        if needle in line and (m := _TRIPLE_RE.match(line)):
            s, p, o, _ = m.groups()
            if p == cfg.type_predicate and o in types:
                subjects.add(s)
    return frozenset(subjects)


def parse_ntriples_file(path: str, cfg: ExtractionConfig | None = None) -> TripleSet:
    """Parse an N-Triples file, optionally .gz.

    Without `cfg` every well-formed row is kept. With it the file is read
    twice: the first pass collects the subjects typed as one of cfg's node or
    bridge types, and the second keeps only the rows of them that
    `extract_subgraph(..., cfg)` reads (see `RowFilter`). Extraction then
    gives the graph a full parse gives, and memory grows with the kept
    subgraph, not with the dump.
    """
    keep = None
    if cfg is not None:
        with open_maybe_gzip(path) as fh:
            keep = RowFilter(_typed_subjects(fh, cfg), cfg.type_predicate, cfg.label_predicate)
    with open_maybe_gzip(path) as fh:
        return parse_ntriples(fh, keep)


@dataclass
class ExtractionConfig:
    """Which typed nodes to keep and where their labels come from.

    Instances of any type in `node_types` are kept outright. Instances of a
    type in `bridge_types` are kept only when directly connected, via any
    relationship, to a kept primary node.
    """

    node_types: set[str]
    bridge_types: set[str] = field(default_factory=set)
    label_predicate: str = RDFS_LABEL
    type_predicate: str = RDF_TYPE

    def __post_init__(self) -> None:
        if not self.node_types:
            raise ValueError("node_types must be non-empty")


@dataclass(eq=False)  # array fields: == would compare element-wise
class LabeledGraph:
    """Undirected simple graph: node IDs with labels, edges as index pairs.

    The constructor takes any collection of (i, j) pairs with i < j; duplicates
    collapse. It builds the symmetric CSR adjacency once: node v's sorted
    neighbors are `indices[indptr[v]:indptr[v + 1]]`.
    """

    node_ids: list[str]
    labels: list[str]
    edges: np.ndarray  # (m, 2) int64 rows (i, j), i < j, unique and sorted; indices into node_ids
    indptr: np.ndarray = field(init=False, repr=False)   # (n + 1,) int64
    indices: np.ndarray = field(init=False, repr=False)  # (2m,) int64

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        if len(self.labels) != n:
            raise ValueError("node_ids and labels length mismatch")
        pairs = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
        if bad.size:
            a, b = i[bad[0]], j[bad[0]]
            raise ValueError(f"self-loop on node index {a}" if a == b else
                             f"edge ({a},{b}) out of range or unordered")
        # key a * n + b sorts as the pair (a, b); sort and drop repeats (np.unique is slower)
        key = np.sort(i * n + j)
        key = key[np.diff(key, prepend=-1) > 0]
        i, j = np.divmod(key, n)
        self.edges = np.column_stack((i, j))
        both_ways = np.sort(np.concatenate((key, j * n + i)))  # by (node, neighbor)
        self.indptr = np.searchsorted(both_ways, np.arange(n + 1) * n)
        self.indices = both_ways % n

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def extract_subgraph(tset: TripleSet, cfg: ExtractionConfig) -> LabeledGraph:
    """Keep typed nodes (plus connected bridge-typed nodes), drop edge types and direction.

    A triple is a type row when its predicate is the type predicate and its
    object an IRI, a label row when its predicate is the label predicate and
    its object a literal, and otherwise a link when its object is an IRI other
    than its subject. Every link between two kept nodes induces one
    undirected edge; duplicates collapse away. A node's first label row gives
    its label; kept nodes missing a label are excluded and logged.
    """
    wanted = {cfg.type_predicate, cfg.label_predicate, *cfg.node_types, *cfg.bridge_types}
    found = {t: i for i, t in enumerate(tset.terms) if t in wanted}
    n_terms = len(tset.terms)
    subj, pred, obj = tset.triples.T
    iri = ~tset.is_literal

    is_type = iri & (pred == found.get(cfg.type_predicate, -1))
    type_subj, type_obj = subj[is_type], obj[is_type]

    def typed(types: set[str]) -> np.ndarray:
        """Mask over term ids: subjects of a type row naming one of `types`."""
        mask = np.zeros(n_terms, dtype=bool)
        type_ids = [found[t] for t in types if t in found]
        mask[type_subj[np.isin(type_obj, type_ids)]] = True
        return mask

    is_link = iri & ~is_type & (subj != obj)
    link_subj, link_obj = subj[is_link], obj[is_link]

    kept = typed(cfg.node_types)
    if cfg.bridge_types:
        candidate = typed(cfg.bridge_types)
        bridged = np.zeros(n_terms, dtype=bool)
        bridged[link_obj[kept[link_subj] & candidate[link_obj]]] = True
        bridged[link_subj[kept[link_obj] & candidate[link_subj]]] = True
        kept |= bridged

    is_label = tset.is_literal & (pred == found.get(cfg.label_predicate, -1))
    label_subj, label_obj = subj[is_label], obj[is_label]
    labeled, first = np.unique(label_subj, return_index=True)
    label_of = np.full(n_terms, -1, dtype=np.int64)
    label_of[labeled] = label_obj[first]
    conflicting = int((label_obj != label_of[label_subj]).sum())
    if conflicting:
        logger.debug("%d label rows differ from their node's first label; keeping the first",
                     conflicting)

    unlabeled = kept & (label_of < 0)
    if unlabeled.any():
        logger.warning("excluding %d kept nodes without a label", int(unlabeled.sum()))
        kept &= ~unlabeled

    terms = tset.terms
    kept_ids = sorted(np.flatnonzero(kept).tolist(), key=terms.__getitem__)
    node_of = np.full(n_terms, -1, dtype=np.int64)
    node_of[kept_ids] = np.arange(len(kept_ids))
    i, j = node_of[link_subj], node_of[link_obj]
    both = (i >= 0) & (j >= 0)  # filtered before stacking: one link-sized copy at a time
    pairs = np.sort(np.column_stack((i[both], j[both])), axis=1)
    labels = [terms[t] for t in label_of[kept_ids].tolist()]
    return LabeledGraph([terms[t] for t in kept_ids], labels, pairs)


@dataclass(frozen=True)
class DegreeStats:
    n_nodes: int
    n_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float
    isolated_nodes: int


def degree_stats(g: LabeledGraph) -> DegreeStats:
    deg = g.degrees()
    if not g.n_nodes:
        return DegreeStats(0, 0, 0, 0, 0.0, 0)
    return DegreeStats(g.n_nodes, g.n_edges, int(deg.min()), int(deg.max()),
                       2 * g.n_edges / g.n_nodes, int((deg == 0).sum()))


_TSV_BREAK_RE = re.compile(r"[\t\n\r]")


def write_graph_tsv(g: LabeledGraph, nodes_path: str, edges_path: str) -> None:
    """Interchange format: nodes.tsv (node_id, label) and edges.tsv (node_id, node_id).
    A tab, LF or CR in a node ID or label would break its line and raises ValueError."""
    for node_id, label in zip(g.node_ids, g.labels):
        if _TSV_BREAK_RE.search(node_id) or _TSV_BREAK_RE.search(label):
            raise ValueError(f"node {node_id!r} (label {label!r}) holds a tab or line break")
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node_id, label in zip(g.node_ids, g.labels):
            fh.write(f"{node_id}\t{label}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for i, j in g.edges.tolist():
            fh.write(f"{g.node_ids[i]}\t{g.node_ids[j]}\n")


def _tsv_pairs(path: str) -> Iterator[tuple[int, str, str]]:
    """Line number and both fields of each non-empty line of a two-column TSV file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 2:
                yield lineno, parts[0], parts[1]
            elif parts != [""]:
                raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")


def read_graph_tsv(nodes_path: str, edges_path: str) -> LabeledGraph:
    nodes = [(node_id, label) for _, node_id, label in _tsv_pairs(nodes_path)]
    index = {node_id: i for i, (node_id, _) in enumerate(nodes)}
    if len(index) != len(nodes):
        raise ValueError(f"{nodes_path}: duplicate node IDs")
    ends = array("q")
    for lineno, a, b in _tsv_pairs(edges_path):
        try:
            ends.extend((index[a], index[b]))
        except KeyError as exc:
            raise ValueError(f"{edges_path}:{lineno}: unknown node {exc}") from None
    pairs = np.sort(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), axis=1)
    return LabeledGraph([node_id for node_id, _ in nodes], [label for _, label in nodes],
                        pairs[pairs[:, 0] != pairs[:, 1]])  # a self-link is dropped
