"""Command-line pipeline: each subcommand runs one stage and writes a run manifest.

Subcommands: extract-graph, node2vec, train-sgns, filter-corpus, impute,
align-baseline, evaluate, pipeline. Values resolve as: command-line flag
beats config-file value beats built-in default. Every stage writes a JSON
manifest (inputs with digests, resolved config, config hash, versions,
timing) next to its artifacts so runs are auditable and reproducible.

Exit codes: 0 ok, 1 input or configuration error, 2 internal error.
Log level comes from the LSIMPUTE_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Any, NoReturn

import numpy as np
import scipy

from . import __version__
from .alignment import align_baseline, write_map
from .corpus import filter_corpus_file
from .embeddings import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    merge_embeddings,
    read_embeddings,
    write_embeddings,
)
from .evaluation import (
    DatasetFormatError,
    bootstrap_eval,
    classify_pairs,
    load_wordpair_dataset,
    split_vocab,
)
from .graph import (
    ExtractionConfig,
    degree_stats,
    extract_subgraph,
    parse_ntriples_file,
    read_graph_tsv,
    write_graph_tsv,
)
from .imputation import LsiConfig, lsi_pipeline
from .sgns import SgnsConfig, train_sgns_full
from .walks import WalkConfig, build_transition_tables, generate_walks, read_corpus, write_corpus

logger = logging.getLogger(__name__)


class InputError(ValueError):
    """User-facing problem: bad config, missing file, malformed data."""


def _field_defaults(cls) -> dict[str, Any]:
    # only ExtractionConfig's type sets lack a plain default; in JSON they are lists
    return {
        f.name: [] if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(cls)
    }


# Built-in defaults per config section, one flag per field. The graph trainer
# keeps every walked node in the vocabulary; SgnsConfig holds the text settings.
DEFAULTS: dict[str, dict[str, Any]] = {
    "paths": {"graph_dump": None, "corpus": None, "dataset": None},
    "extraction": _field_defaults(ExtractionConfig),
    "walks": _field_defaults(WalkConfig),
    "sgns_graph": {
        **_field_defaults(SgnsConfig),
        "window": 15, "epochs": 50, "negative": 5, "alpha": 0.025, "sample": 1e-3, "min_count": 1,
    },
    "sgns_text": _field_defaults(SgnsConfig),
    "lsi": _field_defaults(LsiConfig),
    "evaluate": {"resamples": 1000, "seed": 0, "split_seed": 1},
}

# Flag dests that are not the field name; any other field's flag is --<field>.
_RENAMES = {
    ("walks", "seed"): "walk_seed",
    ("extraction", "node_types"): "node_type",
    ("extraction", "bridge_types"): "bridge_type",
    ("paths", "graph_dump"): "dump",
}


def _load_config_file(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise InputError(f"unknown config sections: {sorted(unknown)}")
    return cfg


def _json_types(default: Any) -> tuple[type, ...]:
    """JSON value types a field accepts: its default's, ints for floats, strings or null for paths."""
    if default is None:
        return (str, type(None))
    return (int, float) if isinstance(default, float) else (type(default),)


def resolve_section(section: str, config: dict[str, Any], ns) -> dict[str, Any]:
    """Merge defaults <- config file <- flags set in `ns`, rejecting unknown or mistyped fields."""
    resolved = dict(DEFAULTS[section])
    file_values = config.get(section, {})
    if not isinstance(file_values, dict):
        raise InputError(f"config section {section!r} must be an object")
    problems = []
    for key, value in file_values.items():
        if key not in resolved:
            problems.append(f"{section}.{key}: unknown field")
        elif not isinstance(value, kinds := _json_types(resolved[key])) or (
            isinstance(value, bool) and bool not in kinds  # JSON true is not a number
        ):
            names = " or ".join(kind.__name__ for kind in kinds)
            problems.append(f"{section}.{key}: expected {names}, got {value!r}")
        else:
            resolved[key] = value
    for key in DEFAULTS[section]:
        value = getattr(ns, _RENAMES.get((section, key), key), None)
        if value is not None:
            resolved[key] = value
    if problems:
        raise InputError("config validation failed:\n  " + "\n  ".join(problems))
    return resolved


def _build(cls, section: str, values: dict[str, Any]):
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid {section} configuration: {exc}") from None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(
    out_dir: Path,
    stage: str,
    config: dict[str, Any],
    inputs: dict[str, Path],
    outputs: list[Path],
    started: float,
    health: dict[str, Any] | None = None,
) -> Path:
    canonical = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "stage": stage,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()
        },
        "outputs": [str(p) for p in outputs],
        "versions": {
            "lsimpute": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "elapsed_seconds": round(time.time() - started, 3),
    }
    if health is not None:
        manifest["health"] = health
    path = out_dir / f"{stage.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise InputError(f"missing required input: {what}")
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} not found: {path}")
    return p


def _out_dir(ns) -> Path:
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_terms(path: Path) -> set[str]:
    return {line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()}


# ---------------------------------------------------------------------------
# stage handlers

def cmd_extract_graph(ns, config) -> None:
    started = time.time()
    dump = _require_file(ns.dump, "--dump (N-Triples file)")
    out = _out_dir(ns)
    resolved = resolve_section("extraction", config, ns)
    cfg = _build(ExtractionConfig, "extraction", {
        **resolved,
        "node_types": set(resolved["node_types"]),
        "bridge_types": set(resolved["bridge_types"]),
    })
    tset = parse_ntriples_file(str(dump))
    graph = extract_subgraph(tset, cfg)
    stats = degree_stats(graph)
    nodes_path = out / "nodes.tsv"
    edges_path = out / "edges.tsv"
    write_graph_tsv(graph, str(nodes_path), str(edges_path))
    print(f"extracted {stats.n_nodes} nodes and {stats.n_edges} edges "
          f"(skipped {tset.skipped} malformed lines, {tset.blank_node_lines} blank-node lines)")
    write_manifest(out, "extract-graph", resolved, {"dump": dump}, [nodes_path, edges_path],
                   started, {**dataclasses.asdict(stats), "malformed_lines": tset.skipped,
                             "blank_node_lines": tset.blank_node_lines})


def _train_sgns_with_health(
    corpus: list[list[str]], cfg: SgnsConfig
) -> tuple[EmbeddingMatrix, dict[str, Any]]:
    """Train SGNS; the health record holds the mean pair loss per epoch and
    the corpus tokens trained per second."""
    start = time.perf_counter()
    result = train_sgns_full(corpus, cfg)
    tokens = cfg.epochs * sum(map(len, corpus))
    return result.embeddings, {
        "epoch_loss": result.epoch_loss,
        "tokens_per_s": round(tokens / (time.perf_counter() - start), 1),
    }


def cmd_node2vec(ns, config) -> None:
    started = time.time()
    nodes = _require_file(ns.nodes, "--nodes")
    edges = _require_file(ns.edges, "--edges")
    out = _out_dir(ns)
    walk_values = resolve_section("walks", config, ns)
    sgns_values = resolve_section("sgns_graph", config, ns)
    walk_cfg = _build(WalkConfig, "walks", walk_values)
    sgns_cfg = _build(SgnsConfig, "sgns_graph", sgns_values)

    graph = read_graph_tsv(str(nodes), str(edges))
    sampler = build_transition_tables(graph, walk_cfg)
    walks = generate_walks(sampler, graph, walk_cfg)
    outputs = []
    if ns.walks_out:
        write_corpus(walks, ns.walks_out)
        outputs.append(Path(ns.walks_out))
    embeddings, health = _train_sgns_with_health(walks, sgns_cfg)
    health["isolated_nodes"] = graph.n_nodes - len(sampler.active_nodes)
    emb_path = out / "domain_embeddings.vec"
    write_embeddings(embeddings, str(emb_path))
    outputs.insert(0, emb_path)
    print(f"trained {len(embeddings)} node embeddings (dim {embeddings.dim}) "
          f"from {len(walks)} walks")
    write_manifest(
        out, "node2vec", {"walks": walk_values, "sgns": sgns_values},
        {"nodes": nodes, "edges": edges}, outputs, started, health,
    )


def cmd_train_sgns(ns, config) -> None:
    started = time.time()
    corpus_path = _require_file(ns.corpus, "--corpus")
    out = _out_dir(ns)
    values = resolve_section("sgns_text", config, ns)
    cfg = _build(SgnsConfig, "sgns_text", values)
    corpus = read_corpus(str(corpus_path))
    if not corpus:
        raise InputError(f"corpus {corpus_path} has no sentences")
    embeddings, health = _train_sgns_with_health(corpus, cfg)
    emb_path = out / "embeddings.vec"
    write_embeddings(embeddings, str(emb_path))
    print(f"trained {len(embeddings)} word embeddings (dim {embeddings.dim}) "
          f"on {len(corpus)} sentences")
    write_manifest(out, "train-sgns", values, {"corpus": corpus_path}, [emb_path], started,
                   health)


def cmd_filter_corpus(ns, config) -> None:
    started = time.time()
    corpus = _require_file(ns.corpus, "--corpus")
    terms_file = _require_file(ns.terms, "--terms")
    out = _out_dir(ns)
    terms = _read_terms(terms_file)
    if not terms:
        raise InputError(f"terms file {terms_file} is empty")
    filtered = out / "filtered_corpus.txt"
    stats = filter_corpus_file(str(corpus), str(filtered), terms)
    stats_path = out / "filter_stats.json"
    stats_path.write_text(stats.to_json(), encoding="utf-8")
    print(f"removed {stats.removed} of {stats.total} sentences "
          f"({100 * stats.removal_fraction:.2f}%)")
    write_manifest(
        out, "filter-corpus", {"terms_count": len(terms)},
        {"corpus": corpus, "terms": terms_file}, [filtered, stats_path], started,
    )


def cmd_impute(ns, config) -> None:
    started = time.time()
    semantic_path = _require_file(ns.semantic, "--semantic")
    domain_path = _require_file(ns.domain, "--domain")
    out = _out_dir(ns)
    values = resolve_section("lsi", config, ns)
    cfg = _build(LsiConfig, "lsi", values)
    semantic = read_embeddings(str(semantic_path))
    domain = read_embeddings(str(domain_path))
    result = lsi_pipeline(semantic, domain, cfg)

    imputed_path = out / "imputed.vec"
    write_embeddings(result.imputed, str(imputed_path))
    outputs = [imputed_path]
    if ns.merged_out:
        write_embeddings(merge_embeddings(semantic, result.imputed), ns.merged_out)
        outputs.append(Path(ns.merged_out))
    report = {
        "imputed_tokens": len(result.imputed),
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "fallback_rows": result.fallback_rows,
        "unreachable_tokens": result.unreachable_tokens,
    }
    report_path = out / "impute_report.json"
    report_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    outputs.append(report_path)
    print(f"imputed {len(result.imputed)} vectors in {result.iterations} iterations "
          f"(residual {result.residual:.2e})")
    blocks = result.block_iterations
    health = {
        "iterations": result.iterations,
        "residual": result.residual,
        "column_blocks": len(blocks),
        "block_iterations_min": min(blocks, default=0),
        "block_iterations_max": max(blocks, default=0),
        "threads": result.threads,
    }
    write_manifest(
        out, "impute", values,
        {"semantic": semantic_path, "domain": domain_path}, outputs, started, health,
    )


def cmd_align_baseline(ns, config) -> None:
    started = time.time()
    semantic_path = _require_file(ns.semantic, "--semantic")
    domain_path = _require_file(ns.domain, "--domain")
    out = _out_dir(ns)
    semantic = read_embeddings(str(semantic_path))
    domain = read_embeddings(str(domain_path))
    aligned, qmap = align_baseline(semantic, domain)
    aligned_path = out / "aligned_oov.vec"
    write_embeddings(aligned, str(aligned_path))
    map_path = out / "alignment_map.txt"
    write_map(qmap, str(map_path))
    outputs = [aligned_path, map_path]
    if ns.merged_out:
        write_embeddings(merge_embeddings(semantic, aligned), ns.merged_out)
        outputs.append(Path(ns.merged_out))
    print(f"aligned {len(aligned)} out-of-vocabulary vectors "
          f"({qmap.anchor_count} anchors, residual {qmap.residual:.4f})")
    write_manifest(
        out, "align-baseline", {},
        {"semantic": semantic_path, "domain": domain_path}, outputs, started,
    )


def cmd_evaluate(ns, config) -> None:
    started = time.time()
    emb_path = _require_file(ns.embeddings, "--embeddings")
    dataset_path = _require_file(ns.dataset, "--dataset")
    out = _out_dir(ns)
    values = resolve_section("evaluate", config, ns)
    embedding = read_embeddings(str(emb_path))
    dataset = load_wordpair_dataset(str(dataset_path))

    inputs = {"embeddings": emb_path, "dataset": dataset_path}
    if ns.trained_vocab or ns.imputed_vocab:
        trained_file = _require_file(ns.trained_vocab, "--trained-vocab")
        imputed_file = _require_file(ns.imputed_vocab, "--imputed-vocab")
        trained, imputed = _read_terms(trained_file), _read_terms(imputed_file)
        inputs["trained_vocab"] = trained_file
        inputs["imputed_vocab"] = imputed_file
    else:
        trained, imputed = split_vocab(dataset.terms(), values["split_seed"])

    split = classify_pairs(dataset, trained, imputed)
    report = bootstrap_eval(embedding, split, values["resamples"], values["seed"])
    report_path = out / "eval_report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    print(report.to_table())
    write_manifest(out, "evaluate", values, inputs, [report_path], started)
    if not report.evaluable():
        counts = {name: len(records) for name, records in split.subsets.items()}
        raise InputError(
            f"no subset had enough embeddable pairs to evaluate "
            f"(subset sizes {counts}, skipped {len(split.skipped)}, "
            f"missing vectors {report.missing_vector_pairs})"
        )


# the config sections each stage resolves, in pipeline order
_STAGE_SECTIONS = ("extraction", "walks", "sgns_text", "sgns_graph", "lsi", "evaluate")


def cmd_pipeline(ns, config) -> None:
    """Chain every stage: split, filter, train, extract, embed, impute, evaluate."""
    started = time.time()
    paths = resolve_section("paths", config, ns)
    dump = _require_file(paths["graph_dump"], "graph dump (--dump or paths.graph_dump)")
    corpus = _require_file(paths["corpus"], "corpus (--corpus or paths.corpus)")
    dataset_path = _require_file(paths["dataset"], "dataset (--dataset or paths.dataset)")
    out = _out_dir(ns)
    # every section is checked before the first stage starts
    resolved = {section: resolve_section(section, config, ns) for section in _STAGE_SECTIONS}

    def run(handler, **changes: str) -> None:
        handler(argparse.Namespace(**{**vars(ns), **changes}), config)

    # 1. split the evaluation vocabulary into trained and to-be-imputed halves
    dataset = load_wordpair_dataset(str(dataset_path))
    trained, imputed = split_vocab(dataset.terms(), resolved["evaluate"]["split_seed"])
    trained_path = out / "trained_vocab.txt"
    imputed_path = out / "imputed_vocab.txt"
    trained_path.write_text("\n".join(sorted(trained)) + "\n", encoding="utf-8")
    imputed_path.write_text("\n".join(sorted(imputed)) + "\n", encoding="utf-8")

    # 2. remove sentences mentioning any to-be-imputed term
    run(cmd_filter_corpus, corpus=str(corpus), terms=str(imputed_path))
    # 3. semantic embeddings from the filtered corpus
    run(cmd_train_sgns, corpus=str(out / "filtered_corpus.txt"))
    semantic_path = str(out / "embeddings.vec")
    # 4 + 5. domain embeddings from the knowledge graph
    run(cmd_extract_graph, dump=str(dump))
    run(cmd_node2vec, nodes=str(out / "nodes.tsv"), edges=str(out / "edges.tsv"))
    domain_path = str(out / "domain_embeddings.vec")
    # 6. impute missing vectors and merge into the trained model
    merged_path = Path(ns.merged_out) if ns.merged_out else out / "merged.vec"
    run(cmd_impute, semantic=semantic_path, domain=domain_path, merged_out=str(merged_path))
    # 7. alignment baseline over the same inputs
    run(cmd_align_baseline, semantic=semantic_path, domain=domain_path,
        merged_out=str(out / "baseline_merged.vec"))
    # 8. evaluate the imputed model
    run(cmd_evaluate, embeddings=str(merged_path), dataset=str(dataset_path),
        trained_vocab=str(trained_path), imputed_vocab=str(imputed_path))

    write_manifest(
        out, "pipeline", resolved,
        {"dump": dump, "corpus": corpus, "dataset": dataset_path},
        [merged_path, out / "eval_report.json"], started,
    )
    print(f"pipeline finished in {time.time() - started:.1f}s; artifacts in {out}")


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # usage problems are input errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """One flag per field of each section; a field name shared by two sections shares one flag."""
    fields: dict[str, list[str]] = {}
    defaults: dict[str, Any] = {}
    for section in sections:
        for key, default in DEFAULTS[section].items():
            dest = _RENAMES.get((section, key), key)
            fields.setdefault(dest, []).append(f"{section}.{key}")
            defaults.setdefault(dest, default)
    for dest, keys in fields.items():
        flag, default, sets = "--" + dest.replace("_", "-"), defaults[dest], "sets " + ", ".join(keys)
        if isinstance(default, list):
            p.add_argument(flag, dest=dest, action="append", help=sets + " (repeatable)")
        else:
            p.add_argument(flag, dest=dest, type=None if default is None else type(default), help=sets)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lsimpute", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract-graph", help="N-Triples dump to nodes.tsv/edges.tsv")
    p.add_argument("--dump", help="N-Triples file, optionally .gz")
    _add_config_flags(p, "extraction")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_extract_graph)

    p = sub.add_parser("node2vec", help="graph TSV to node embeddings")
    p.add_argument("--nodes")
    p.add_argument("--edges")
    p.add_argument("--walks-out", help="also write the walk corpus here")
    _add_config_flags(p, "walks", "sgns_graph")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_node2vec)

    p = sub.add_parser("train-sgns", help="text corpus to word embeddings")
    p.add_argument("--corpus", help="one sentence per line, space-separated tokens")
    _add_config_flags(p, "sgns_text")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_train_sgns)

    p = sub.add_parser("filter-corpus", help="drop sentences containing target terms")
    p.add_argument("--corpus")
    p.add_argument("--terms", help="file with one normalized term per line")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_filter_corpus)

    p = sub.add_parser("impute", help="impute missing semantic vectors from the domain space")
    p.add_argument("--semantic", help="embedding file to extend")
    p.add_argument("--domain", help="embedding file supplying neighborhoods")
    _add_config_flags(p, "lsi")
    p.add_argument("--merged-out", help="also write base + imputed merged here")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("align-baseline", help="orthogonal map baseline for OOV vectors")
    p.add_argument("--semantic")
    p.add_argument("--domain")
    p.add_argument("--merged-out")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_align_baseline)

    p = sub.add_parser("evaluate", help="word-pair correlation evaluation")
    p.add_argument("--embeddings")
    p.add_argument("--dataset", help="CSV: Term1,Term2,Similarity,Relatedness")
    p.add_argument("--trained-vocab", help="file of trained terms (with --imputed-vocab)")
    p.add_argument("--imputed-vocab")
    _add_config_flags(p, "evaluate")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_config_flags(p, "paths", *_STAGE_SECTIONS)
    p.add_argument("--walks-out")
    p.add_argument("--merged-out", help="merged embeddings path (default: <out-dir>/merged.vec)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("LSIMPUTE_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config_file(ns.config)
        ns.func(ns, config)
        return 0
    except (InputError, EmbeddingFormatError, DatasetFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        logger.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
