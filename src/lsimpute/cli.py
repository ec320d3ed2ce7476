"""Command-line pipeline: each subcommand runs one stage and writes a run manifest.

Each command is declared once: its config sections, its input flags, the
files it writes in --out-dir and its output flags. Its flags and its checks
both come from that declaration. Values resolve as: command-line flag beats
config-file value beats built-in default. Each command checks its config
values, input files and output paths before it creates --out-dir (no output
may be an input, another output or a directory), so one that exits 1 on any
of them writes nothing. On success it writes a JSON manifest (inputs with the
digests they had when the command started, outputs, resolved config, config
hash, versions, timing) next to its artifacts; a command that exits 1 writes
no manifest.

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
from typing import Any, NamedTuple, NoReturn

import numpy as np
import scipy

from . import __version__
from .alignment import align_baseline, write_map
from .corpus import filter_corpus_file
from .embeddings import EmbeddingFormatError, merge_embeddings, read_embeddings, write_embeddings
from .evaluation import (DatasetFormatError, EvaluateConfig, bootstrap_eval, classify_pairs,
                         load_wordpair_dataset, split_vocab)
from .graph import (ExtractionConfig, degree_stats, extract_subgraph, parse_ntriples_file,
                    read_graph_tsv, write_graph_tsv)
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
    "evaluate": _field_defaults(EvaluateConfig),
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
    """JSON value types a field accepts: its default's (lists of strings), ints for floats,
    strings or null for paths."""
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
        ) or (isinstance(value, list) and not all(isinstance(v, str) for v in value)):
            names = " or ".join(kind.__name__ for kind in kinds) + " of str" * (list in kinds)
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


# the config class of each stage section, in the order the pipeline's stages build them
_CONFIG_CLASSES = {"sgns_text": SgnsConfig, "extraction": ExtractionConfig, "walks": WalkConfig,
                   "sgns_graph": SgnsConfig, "lsi": LsiConfig, "evaluate": EvaluateConfig}


def _build(section: str, values: dict[str, Any]):
    """The section's config object; a value the class rejects is an input error."""
    if section == "extraction":  # the type sets are lists in JSON
        values = {**values, "node_types": set(values["node_types"]),
                  "bridge_types": set(values["bridge_types"])}
    try:
        return _CONFIG_CLASSES[section](**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid {section} configuration: {exc}") from None


# input digests by (resolved path, size, st_mtime_ns); main() starts one per call
Digests = dict[tuple[str, int, int], str]


def _sha256(path: Path, digests: Digests) -> str:
    """The file's SHA-256, read once per `digests` while its size and mtime stay."""
    st = path.stat()
    key = (str(path.resolve()), st.st_size, st.st_mtime_ns)
    if key not in digests:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digests[key] = h.hexdigest()
    return digests[key]


def _manifest_name(stage: str) -> str:
    return stage.replace("-", "_") + "_manifest.json"


def write_manifest(out_dir: Path, stage: str, config: dict[str, Any],
                   inputs: dict[str, dict[str, str]], outputs: list[Path], started: float,
                   health: dict[str, Any] | None = None) -> None:
    canonical = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "stage": stage,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
        "versions": {"lsimpute": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": sys.version.split()[0]},
        "elapsed_seconds": round(time.time() - started, 3),
    }
    if health is not None:
        manifest["health"] = health
    (out_dir / _manifest_name(stage)).write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                                 encoding="utf-8")


def _require_file(path: str | None, what: str) -> Path:
    if not path:
        raise InputError(f"missing required input: {what}")
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} not found: {path}")
    return p


def _read_terms(path: Path) -> set[str]:
    return {line.strip() for line in path.read_text(encoding="utf-8").splitlines() if line.strip()}


# ---------------------------------------------------------------------------
# the stage runner

class Stage(NamedTuple):
    """A command as declared to `_stage`; the parser and the stage runner both read it."""

    name: str
    help: str
    sections: tuple[str, ...]  # config sections, one flag per field
    inputs: dict[str, str | None]  # required input flags (by dest) and their help
    outputs: tuple[str, ...]  # fixed file names in --out-dir, besides the manifest
    flags: dict[str, str | None] = {}  # output flags, and the file in --out-dir each defaults to
    optional: dict[str, str | None] = {}  # input flags given all or none


STAGES: dict[str, Stage] = {}  # in the order the parser lists them

_OUTPUT_HELP = {"merged_out": "write the semantic vectors merged with the new ones here",
                "walks_out": "write the walk corpus here"}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _handler(stage: str):
    # through the module's globals, where perfbench's tracer replaces each cmd_*
    return globals()["cmd_" + stage.replace("-", "_")]


@dataclasses.dataclass(frozen=True)
class Run:
    """What a stage body is given once every check has passed."""

    ns: argparse.Namespace
    config: dict[str, Any]  # the config file
    values: dict[str, dict[str, Any]]  # resolved values per config section
    cfg: dict[str, Any]  # the built config object per section
    inputs: dict[str, Path]  # checked input files, by manifest name
    out: Path
    outputs: tuple[Path, ...]  # the declared outputs, then each output flag given or defaulted
    digests: Digests  # of manifest inputs, shared by every stage of one main() call


# what a stage body returns for its manifest: the config record and health
StageResult = tuple[dict[str, Any], dict[str, Any] | None]


def _outputs(stage: Stage, ns, out: Path, inputs: dict[str, Path]) -> tuple[Path, ...]:
    """`Run.outputs`, once none of them, nor the manifest, is an input, another output or a
    directory, and the directory of each output flag exists (or is --out-dir)."""
    given = {dest: getattr(ns, dest) for dest in stage.flags}
    for dest, path in given.items():
        if path == "":
            raise InputError(f"{_flag(dest)} is empty: give it a file path or leave it out")
    flagged = {dest: Path(given[dest] or out / default)
               for dest, default in stage.flags.items() if given[dest] or default}
    for dest, path in flagged.items():
        if not path.parent.is_dir() and path.parent.resolve() != out.resolve():
            raise InputError(f"{_flag(dest)} directory does not exist: {path.parent}")
    fixed = [out / file for file in stage.outputs]
    named = {str(path): path for path in (*fixed, out / _manifest_name(stage.name))}
    named.update({f"{_flag(dest)} {path}": path for dest, path in flagged.items()})
    seen: dict[Path, str] = {}
    for label, path in named.items():
        if path.is_dir():
            raise InputError(f"{label} is a directory")
        for key, given in inputs.items():
            if path.exists() and os.path.samefile(path, given):
                raise InputError(f"{label} is an input of this stage: it is the input {key} "
                                 f"({given})")
        if (first := seen.setdefault(path.resolve(), label)) != label:
            raise InputError(f"{label} is also {first}, another output of this stage")
    return (*fixed, *flagged.values())


def _stage(*declaration, **keywords):
    """Declare a `Stage` and make `body(run) -> StageResult` its handler.

    Every config section, input file (the `optional` ones all or none) and
    output is checked, and every input hashed, before --out-dir is created. If
    the body fails, the directories that creating --out-dir made are removed
    again, from --out-dir up, as long as they are empty. When it
    returns, the manifest is written, with the digests of the inputs as the
    body read them and `Run.outputs`, through the module name
    `write_manifest`, which perfbench's tracer replaces.
    """
    stage = Stage(*declaration, **keywords)
    STAGES[stage.name] = stage

    def wrap(body):
        def handler(ns, config, digests: Digests) -> None:
            started = time.time()
            values = {section: resolve_section(section, config, ns) for section in stage.sections}
            # pipeline takes its input paths from flags or the config file's paths section
            given = {**vars(ns), **{_RENAMES.get(("paths", key), key): path
                                    for key, path in values.pop("paths", {}).items()}}
            optional = stage.optional if any(map(given.get, stage.optional)) else {}
            hint = " (or the config's paths section)" if "paths" in stage.sections else ""
            found = {key: _require_file(given.get(key), _flag(key) + hint)
                     for key in {**stage.inputs, **optional}}
            cfg = {section: _build(section, v) for section, v in values.items()}
            out = Path(ns.out_dir)
            outputs = _outputs(stage, ns, out, found)
            hashed = {key: {"path": str(p), "sha256": _sha256(p, digests)}
                      for key, p in found.items()}
            created = [path for path in (out, *out.parents) if not path.exists()]
            out.mkdir(parents=True, exist_ok=True)
            try:
                record, health = body(Run(ns, config, values, cfg, found, out, outputs, digests))
            except BaseException:
                for path in created:  # deepest first, up to the first that is not empty
                    if any(path.iterdir()):
                        break
                    path.rmdir()
                raise
            write_manifest(out, stage.name, record, hashed, list(outputs), started, health)
        return handler
    return wrap


# ---------------------------------------------------------------------------
# stage handlers

@_stage("extract-graph", "typed subgraph of an N-Triples dump", ("extraction",),
        {"dump": "N-Triples file, optionally .gz"}, ("nodes.tsv", "edges.tsv"))
def cmd_extract_graph(run: Run) -> StageResult:
    tset = parse_ntriples_file(str(run.inputs["dump"]), run.cfg["extraction"])
    graph = extract_subgraph(tset, run.cfg["extraction"])
    typed = len(tset.row_filter.subjects)
    if not graph.n_nodes:
        raise InputError(f"the graph is empty: no labelled subject of {run.inputs['dump']} has "
                         f"a node type in {sorted(run.cfg['extraction'].node_types)} "
                         f"(typed_subjects {typed})")
    if not graph.n_edges:
        raise InputError(f"the graph has {graph.n_nodes} nodes but no edges: no link in "
                         f"{run.inputs['dump']} joins two of them, so no walk can start")
    stats = degree_stats(graph)
    nodes_path, edges_path = run.outputs
    write_graph_tsv(graph, str(nodes_path), str(edges_path))
    print(f"extracted {stats.n_nodes} nodes and {stats.n_edges} edges "
          f"(skipped {tset.skipped} malformed lines, {tset.blank_node_lines} blank-node lines)")
    return run.values["extraction"], {
        **dataclasses.asdict(stats), "malformed_lines": tset.skipped,
        "blank_node_lines": tset.blank_node_lines, "typed_subjects": typed,
        "kept_rows": len(tset), "unkept_lines": tset.unkept_lines}


@_stage("node2vec", "graph TSV to node embeddings", ("walks", "sgns_graph"),
        {"nodes": None, "edges": None}, ("domain_embeddings.vec",), flags={"walks_out": None})
def cmd_node2vec(run: Run) -> StageResult:
    graph = read_graph_tsv(str(run.inputs["nodes"]), str(run.inputs["edges"]))
    sampler = build_transition_tables(graph, run.cfg["walks"])
    walks = generate_walks(sampler, graph, run.cfg["walks"])
    emb_path, *walks_out = run.outputs
    for path in walks_out:
        write_corpus(walks, str(path))
    result = train_sgns_full(walks, run.cfg["sgns_graph"])
    write_embeddings(result.embeddings, str(emb_path))
    print(f"trained {len(result.embeddings)} node embeddings (dim {result.embeddings.dim}) "
          f"from {len(walks)} walks")
    record = {"walks": run.values["walks"], "sgns": run.values["sgns_graph"]}
    return record, {
        "epoch_loss": result.epoch_loss, "tokens_per_s": result.tokens_per_s,
        "isolated_nodes": graph.n_nodes - len(sampler.active_nodes)}


@_stage("train-sgns", "text corpus to word embeddings", ("sgns_text",),
        {"corpus": "one sentence per line, space-separated tokens"}, ("embeddings.vec",))
def cmd_train_sgns(run: Run) -> StageResult:
    corpus = read_corpus(str(run.inputs["corpus"]))
    if not corpus:
        raise InputError(f"corpus {run.inputs['corpus']} has no sentences")
    result = train_sgns_full(corpus, run.cfg["sgns_text"])
    (emb_path,) = run.outputs
    write_embeddings(result.embeddings, str(emb_path))
    print(f"trained {len(result.embeddings)} word embeddings (dim {result.embeddings.dim}) "
          f"on {len(corpus)} sentences")
    return run.values["sgns_text"], {
        "epoch_loss": result.epoch_loss, "tokens_per_s": result.tokens_per_s}


@_stage("filter-corpus", "drop sentences containing target terms", (),
        {"corpus": None, "terms": "file with one normalized term per line"},
        ("filtered_corpus.txt", "filter_stats.json"))
def cmd_filter_corpus(run: Run) -> StageResult:
    terms = _read_terms(run.inputs["terms"])
    if not terms:
        raise InputError(f"terms file {run.inputs['terms']} is empty")
    filtered, stats_path = run.outputs
    stats = filter_corpus_file(str(run.inputs["corpus"]), str(filtered), terms)
    stats_path.write_text(stats.to_json(), encoding="utf-8")
    print(f"removed {stats.removed} of {stats.total} sentences "
          f"({100 * stats.removal_fraction:.2f}%)")
    return {"terms_count": len(terms)}, None


@_stage("impute", "impute missing semantic vectors from the domain space", ("lsi",),
        {"semantic": "embedding file to extend", "domain": "embedding file supplying neighborhoods"},
        ("imputed.vec", "impute_report.json"), flags={"merged_out": None})
def cmd_impute(run: Run) -> StageResult:
    semantic = read_embeddings(str(run.inputs["semantic"]))
    domain = read_embeddings(str(run.inputs["domain"]))
    result = lsi_pipeline(semantic, domain, run.cfg["lsi"])

    imputed_path, report_path, *merged_out = run.outputs
    write_embeddings(result.imputed, str(imputed_path))
    for path in merged_out:
        write_embeddings(merge_embeddings(semantic, result.imputed), str(path))
    report = {"imputed_tokens": len(result.imputed), "iterations": result.iterations,
              "residual": result.residual, "converged": result.converged,
              "fallback_rows": result.fallback_rows,
              "unreachable_tokens": result.unreachable_tokens}
    report_path.write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"imputed {len(result.imputed)} vectors in {result.iterations} iterations "
          f"(residual {result.residual:.2e})")
    blocks = result.block_iterations
    return run.values["lsi"], {
        **{key: report[key] for key in ("iterations", "residual", "fallback_rows")},
        "column_blocks": len(blocks), "block_iterations_min": min(blocks, default=0),
        "block_iterations_max": max(blocks, default=0), "threads": result.threads,
        "unreachable_nodes": len(result.unreachable_tokens),
        "anchor_hops_max": result.anchor_hops_max, **result.graph_health}


@_stage("align-baseline", "orthogonal map baseline for OOV vectors", (),
        {"semantic": None, "domain": None}, ("aligned_oov.vec", "alignment_map.txt"),
        flags={"merged_out": None})
def cmd_align_baseline(run: Run) -> StageResult:
    semantic = read_embeddings(str(run.inputs["semantic"]))
    domain = read_embeddings(str(run.inputs["domain"]))
    aligned, qmap = align_baseline(semantic, domain)
    aligned_path, map_path, *merged_out = run.outputs
    write_embeddings(aligned, str(aligned_path))
    write_map(qmap, str(map_path))
    for path in merged_out:
        write_embeddings(merge_embeddings(semantic, aligned), str(path))
    print(f"aligned {len(aligned)} out-of-vocabulary vectors "
          f"({qmap.anchor_count} anchors, residual {qmap.residual:.4f})")
    return {}, None


@_stage("evaluate", "word-pair correlation evaluation", ("evaluate",),
        {"embeddings": None, "dataset": "CSV: Term1,Term2,Similarity,Relatedness"},
        ("eval_report.json",),
        optional={"trained_vocab": "file of trained terms (with --imputed-vocab)",
                  "imputed_vocab": None})
def cmd_evaluate(run: Run) -> StageResult:
    cfg = run.cfg["evaluate"]
    embedding = read_embeddings(str(run.inputs["embeddings"]))
    dataset = load_wordpair_dataset(str(run.inputs["dataset"]))
    if "trained_vocab" in run.inputs:
        trained = _read_terms(run.inputs["trained_vocab"])
        imputed = _read_terms(run.inputs["imputed_vocab"])
    else:
        trained, imputed = split_vocab(dataset.terms(), cfg.split_seed)

    split = classify_pairs(dataset, trained, imputed)
    report = bootstrap_eval(embedding, split, cfg.resamples, cfg.seed)
    (report_path,) = run.outputs
    report_path.write_text(report.to_json(), encoding="utf-8")
    print(report.to_table())
    if not report.evaluable():
        counts = {name: len(records) for name, records in split.subsets.items()}
        raise InputError(
            f"no subset had enough embeddable pairs to evaluate "
            f"(subset sizes {counts}, skipped {len(split.skipped)}, "
            f"missing vectors {report.missing_vector_pairs})"
        )
    return run.values["evaluate"], None


# pipeline's own files, then the files of every stage it runs (all but align-baseline)
@_stage("pipeline", "run every stage end to end", ("paths", *_CONFIG_CLASSES),
        dict.fromkeys(("dump", "corpus", "dataset")),
        ("trained_vocab.txt", "imputed_vocab.txt",
         *(file for stage in STAGES.values() if stage.name != "align-baseline"
           for file in (*stage.outputs, _manifest_name(stage.name)))),
        flags={"walks_out": None, "merged_out": "merged.vec"})
def cmd_pipeline(run: Run) -> StageResult:
    """Chain extract, split, filter, train, embed, impute and evaluate (not align-baseline)."""
    def stage(name: str, **changes: str) -> tuple[str, ...]:
        """Run stage `name` over --out-dir; return its fixed outputs' paths."""
        _handler(name)(argparse.Namespace(**{**vars(run.ns), **changes}), run.config, run.digests)
        return tuple(str(run.out / file) for file in STAGES[name].outputs)

    # 1. the graph first: it reads only the dump, so an empty one fails before any training
    nodes, edges = stage("extract-graph", dump=str(run.inputs["dump"]))
    # 2. split the evaluation vocabulary into trained and to-be-imputed halves
    dataset = load_wordpair_dataset(str(run.inputs["dataset"]))
    trained, imputed = split_vocab(dataset.terms(), run.cfg["evaluate"].split_seed)
    trained_path, imputed_path, *_, merged = run.outputs  # --merged-out comes last
    trained_path.write_text("\n".join(sorted(trained)) + "\n", encoding="utf-8")
    imputed_path.write_text("\n".join(sorted(imputed)) + "\n", encoding="utf-8")

    # 3. remove sentences mentioning any to-be-imputed term
    filtered, _ = stage("filter-corpus", corpus=str(run.inputs["corpus"]), terms=str(imputed_path))
    # 4. semantic embeddings from the filtered corpus
    (semantic,) = stage("train-sgns", corpus=filtered)
    # 5. domain embeddings from the knowledge graph
    (domain,) = stage("node2vec", nodes=nodes, edges=edges)
    # 6. impute missing vectors and merge into the trained model
    stage("impute", semantic=semantic, domain=domain, merged_out=str(merged))
    # 7. evaluate the imputed model
    stage("evaluate", embeddings=str(merged), dataset=str(run.inputs["dataset"]),
          trained_vocab=str(trained_path), imputed_vocab=str(imputed_path))
    print(f"pipeline finished; artifacts and manifests in {run.out}")
    return run.values, None


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
        flag, default, sets = _flag(dest), defaults[dest], "sets " + ", ".join(keys)
        if isinstance(default, list):
            p.add_argument(flag, dest=dest, action="append", help=sets + " (repeatable)")
        else:
            p.add_argument(flag, dest=dest, type=None if default is None else type(default), help=sets)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lsimpute", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        p = sub.add_parser(stage.name, help=stage.help)
        if "paths" not in stage.sections:  # else the paths section's flags name the inputs
            for dest, text in {**stage.inputs, **stage.optional}.items():
                p.add_argument(_flag(dest), help=text)
        for dest, default in stage.flags.items():
            p.add_argument(_flag(dest), help=_OUTPUT_HELP[dest] + (
                f" (default: <out-dir>/{default})" if default else ""))
        _add_config_flags(p, *stage.sections)
        p.add_argument("--out-dir", default=".")
        p.set_defaults(func=_handler(stage.name))
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
        ns.func(ns, config, {})  # no digest outlives the call: inputs may change between calls
        return 0
    except (InputError, EmbeddingFormatError, DatasetFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        logger.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
