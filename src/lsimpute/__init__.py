"""Impute out-of-vocabulary word embedding vectors from knowledge-graph structure.

The library covers the full pipeline: RDF subgraph extraction, node embedding
training via biased random walks and skip-gram, anchor matching between the
two vocabularies, neighborhood-weight imputation, an orthogonal-alignment
baseline, corpus filtering for controlled experiments, and a word-pair
similarity evaluation harness.
"""

__version__ = "0.1.0"

from .alignment import OrthogonalMap, align_baseline, fit_alignment
from .corpus import FilterStats, filter_corpus, tokenize_sentence
from .embeddings import (
    AnchorMap,
    EmbeddingMatrix,
    find_anchors,
    merge_embeddings,
    normalize_label,
    read_embeddings,
    write_embeddings,
)
from .evaluation import (
    EvalReport,
    EvaluateConfig,
    PairSplit,
    WordPairDataset,
    bootstrap_eval,
    classify_pairs,
    cosine_similarity,
    load_wordpair_dataset,
    pearson,
    split_vocab,
)
from .graph import (
    ExtractionConfig,
    LabeledGraph,
    TripleSet,
    degree_stats,
    extract_subgraph,
    parse_ntriples,
)
from .imputation import (
    ImputationResult,
    LsiConfig,
    NeighborGraph,
    WeightMatrix,
    impute,
    knn_mst,
    lsi_pipeline,
    solve_weights,
)
from .nnls import nnls
from .sgns import SgnsConfig, train_sgns_full
from .walks import WalkConfig, WalkSampler, build_transition_tables, generate_walks

__all__ = [
    "AnchorMap",
    "EmbeddingMatrix",
    "EvalReport",
    "EvaluateConfig",
    "ExtractionConfig",
    "FilterStats",
    "ImputationResult",
    "LabeledGraph",
    "LsiConfig",
    "NeighborGraph",
    "OrthogonalMap",
    "PairSplit",
    "SgnsConfig",
    "TripleSet",
    "WalkConfig",
    "WalkSampler",
    "WeightMatrix",
    "WordPairDataset",
    "align_baseline",
    "bootstrap_eval",
    "build_transition_tables",
    "classify_pairs",
    "cosine_similarity",
    "degree_stats",
    "extract_subgraph",
    "filter_corpus",
    "find_anchors",
    "fit_alignment",
    "generate_walks",
    "impute",
    "knn_mst",
    "load_wordpair_dataset",
    "lsi_pipeline",
    "merge_embeddings",
    "nnls",
    "normalize_label",
    "parse_ntriples",
    "pearson",
    "read_embeddings",
    "solve_weights",
    "split_vocab",
    "tokenize_sentence",
    "train_sgns_full",
    "write_embeddings",
]
