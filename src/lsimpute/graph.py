"""N-Triples parsing and typed-subgraph extraction into an undirected labeled graph.

The parser accepts the line-oriented N-Triples subset that RDF dumps are
commonly distributed in: ``<s> <p> <o> .`` and ``<s> <p> "literal" .``.
Malformed lines are skipped with a warning count rather than aborting, since
dump files are large and imperfect.
"""

from __future__ import annotations

import gzip
import logging
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"

_IRI = r"<([^<>\s]*)>"
_LITERAL = r'"((?:[^"\\]|\\.)*)"(?:\^\^<[^<>\s]*>|@[A-Za-z0-9-]+)?'
_TRIPLE_RE = re.compile(
    rf"^\s*{_IRI}\s+{_IRI}\s+(?:{_IRI}|{_LITERAL})\s*\.\s*$"
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


@dataclass(slots=True)
class Triple:
    subject: str
    predicate: str
    obj: str
    is_literal: bool


@dataclass
class TripleSet:
    triples: list[Triple]
    skipped: int = 0  # malformed lines

    def __len__(self) -> int:
        return len(self.triples)


def parse_ntriples(lines: Iterable[str]) -> TripleSet:
    """Parse N-Triples-like lines; malformed lines are counted and skipped."""
    triples: list[Triple] = []
    skipped = 0
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _TRIPLE_RE.match(line)
        if m is None:
            skipped += 1
            if skipped <= 5:
                logger.warning("skipping malformed line %d: %s", lineno, stripped[:120])
            continue
        s, p, o_iri, o_lit = m.groups()
        p = sys.intern(p)  # a dump has few distinct predicates
        if o_iri is not None:
            triples.append(Triple(s, p, o_iri, False))
        else:
            triples.append(Triple(s, p, _unescape(o_lit), True))
    if skipped:
        logger.warning("skipped %d malformed lines in total", skipped)
    return TripleSet(triples, skipped)


def open_maybe_gzip(path: str, mode: str = "rt") -> TextIO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_ntriples_file(path: str) -> TripleSet:
    with open_maybe_gzip(path) as fh:
        return parse_ntriples(fh)


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


@dataclass
class LabeledGraph:
    """Undirected simple graph: node IDs with labels, edges as index pairs."""

    node_ids: list[str]
    labels: list[str]
    edges: set[tuple[int, int]]  # (i, j) with i < j, indices into node_ids

    def __post_init__(self) -> None:
        n = len(self.node_ids)
        if len(self.labels) != n:
            raise ValueError("node_ids and labels length mismatch")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node index {i}")
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i},{j}) out of range or unordered")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for lst in adj:
            lst.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n_nodes
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


def extract_subgraph(tset: TripleSet, cfg: ExtractionConfig) -> LabeledGraph:
    """Keep typed nodes (plus connected bridge-typed nodes), drop edge types and direction.

    Every triple whose subject and object are both kept nodes induces one
    undirected edge; duplicates and self-loops collapse away. Kept nodes
    missing a label are excluded and logged.
    """
    types: dict[str, set[str]] = defaultdict(set)
    labels: dict[str, str] = {}
    links: list[tuple[str, str]] = []
    for t in tset.triples:
        if t.predicate == cfg.type_predicate and not t.is_literal:
            types[t.subject].add(t.obj)
        elif t.predicate == cfg.label_predicate and t.is_literal:
            if t.subject in labels and labels[t.subject] != t.obj:
                logger.debug("node %s has multiple labels; keeping first", t.subject)
            else:
                labels.setdefault(t.subject, t.obj)
        elif not t.is_literal and t.subject != t.obj:
            links.append((t.subject, t.obj))

    primary = {n for n, ts in types.items() if ts & cfg.node_types}
    if cfg.bridge_types:
        candidates = {n for n, ts in types.items() if ts & cfg.bridge_types}
        bridged = set()
        for s, o in links:
            if s in primary and o in candidates:
                bridged.add(o)
            if o in primary and s in candidates:
                bridged.add(s)
        kept = primary | bridged
    else:
        kept = primary

    unlabeled = sorted(n for n in kept if n not in labels)
    if unlabeled:
        logger.warning("excluding %d kept nodes without a label", len(unlabeled))
        kept -= set(unlabeled)

    node_ids = sorted(kept)
    index = {n: i for i, n in enumerate(node_ids)}
    edges: set[tuple[int, int]] = set()
    for s, o in links:
        if s in index and o in index:
            i, j = index[s], index[o]
            edges.add((i, j) if i < j else (j, i))

    return LabeledGraph(node_ids, [labels[n] for n in node_ids], edges)


def connected_components(g: LabeledGraph) -> list[list[int]]:
    """Components as sorted index lists, ordered by smallest member."""
    from scipy.sparse import csgraph  # imported on first use, not at `import lsimpute`

    edges = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2)
    adjacency = sp.csr_array(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(g.n_nodes, g.n_nodes)
    )
    _, labels = csgraph.connected_components(adjacency, directed=False)
    components: dict[int, list[int]] = {}
    for node, label in enumerate(labels.tolist()):
        components.setdefault(label, []).append(node)
    return sorted(components.values(), key=lambda c: c[0])


@dataclass(frozen=True)
class DegreeStats:
    n_nodes: int
    n_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float


def degree_stats(g: LabeledGraph) -> DegreeStats:
    deg = g.degrees()
    if not deg:
        return DegreeStats(0, 0, 0, 0, 0.0)
    return DegreeStats(
        n_nodes=g.n_nodes,
        n_edges=g.n_edges,
        min_degree=min(deg),
        max_degree=max(deg),
        mean_degree=sum(deg) / len(deg),
    )


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
        for i, j in sorted(g.edges):
            fh.write(f"{g.node_ids[i]}\t{g.node_ids[j]}\n")


def read_graph_tsv(nodes_path: str, edges_path: str) -> LabeledGraph:
    node_ids: list[str] = []
    labels: list[str] = []
    with open(nodes_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{nodes_path}:{lineno}: expected 2 tab-separated fields")
            node_ids.append(parts[0])
            labels.append(parts[1])
    index = {n: i for i, n in enumerate(node_ids)}
    if len(index) != len(node_ids):
        raise ValueError(f"{nodes_path}: duplicate node IDs")
    edges: set[tuple[int, int]] = set()
    with open(edges_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{edges_path}:{lineno}: expected 2 tab-separated fields")
            try:
                i, j = index[parts[0]], index[parts[1]]
            except KeyError as exc:
                raise ValueError(f"{edges_path}:{lineno}: unknown node {exc}") from None
            if i != j:
                edges.add((i, j) if i < j else (j, i))
    return LabeledGraph(node_ids, labels, edges)
