from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lsimpute import EmbeddingMatrix, knn_mst, read_embeddings, write_embeddings
from lsimpute import cli
from lsimpute.cli import main
from lsimpute.evaluation import load_wordpair_dataset
from lsimpute.walks import read_corpus

from conftest import RDF_TYPE, RDFS_LABEL, write_pipeline_fixture


@pytest.fixture()
def fixture_files(tmp_path):
    return write_pipeline_fixture(tmp_path), tmp_path


def _write_embeddings(path, tokens, vectors):
    write_embeddings(EmbeddingMatrix(tokens, np.asarray(vectors, dtype=float)), str(path))


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_input_is_input_error(tmp_path):
    code = main(["impute", "--semantic", str(tmp_path / "absent.vec"),
                 "--domain", str(tmp_path / "absent2.vec"), "--out-dir", str(tmp_path)])
    assert code == 1


# One bad value per case; {name} is a path from _stage_inputs.
BAD_RUNS = {
    "train-sgns --dim 0": (["train-sgns", "--corpus", "{corpus}", "--dim", "0"],
                           "dim must be >= 1"),
    "train-sgns --min-count 0": (["train-sgns", "--corpus", "{corpus}", "--min-count", "0"],
                                 "min_count must be >= 1"),
    "train-sgns --sample -1": (["train-sgns", "--corpus", "{corpus}", "--sample", "-1"],
                               "sample must be finite and >= 0"),
    "node2vec --p -1": (["node2vec", "--nodes", "{nodes}", "--edges", "{edges}", "--p", "-1"],
                        "p and q must be finite and positive"),
    "impute --k 0": (["impute", "--semantic", "{semantic}", "--domain", "{domain}", "--k", "0"],
                     "k must be >= 1"),
    "extract-graph node_types []": (["--config", "{no_types}", "extract-graph", "--dump", "{dump}"],
                                    "node_types must be non-empty"),
    "filter-corpus missing --terms": (["filter-corpus", "--corpus", "{corpus}",
                                       "--terms", "{absent}"], "--terms not found"),
    # data faults found only once the stage body runs
    "filter-corpus empty --terms": (["filter-corpus", "--corpus", "{corpus}",
                                     "--terms", "{empty}"], "is empty"),
    "train-sgns blank corpus": (["train-sgns", "--corpus", "{blank}"], "has no sentences"),
    "align-baseline missing --domain": (["align-baseline", "--semantic", "{semantic}",
                                         "--domain", "{absent}"], "--domain not found"),
    "evaluate --trained-vocab alone": (["evaluate", "--embeddings", "{semantic}",
                                        "--dataset", "{dataset}", "--trained-vocab", "{terms}"],
                                       "missing required input: --imputed-vocab"),
    "impute --merged-out": (["impute", "--semantic", "{semantic}", "--domain", "{domain}",
                             "--merged-out", "{nodir}/merged.vec"], "--merged-out directory"),
    "align-baseline --merged-out": (["align-baseline", "--semantic", "{semantic}",
                                     "--domain", "{domain}", "--merged-out", "{nodir}/m.vec"],
                                    "--merged-out directory"),
    "node2vec --walks-out": (["node2vec", "--nodes", "{nodes}", "--edges", "{edges}",
                              "--walks-out", "{nodir}/walks.txt"], "--walks-out directory"),
    # pipeline runs three or four stages before it writes either file
    "pipeline --merged-out": (["--config", "{config}", "pipeline", "--dump", "{dump}",
                               "--corpus", "{corpus}", "--dataset", "{dataset}",
                               "--merged-out", "{nodir}/merged.vec"], "--merged-out directory"),
    "pipeline --walks-out": (["--config", "{config}", "pipeline", "--dump", "{dump}",
                              "--corpus", "{corpus}", "--dataset", "{dataset}",
                              "--walks-out", "{nodir}/walks.txt"], "--walks-out directory"),
}


def _stage_inputs(tmp_path) -> dict[str, str]:
    """A valid file for every {name} in BAD_RUNS, plus a missing file and a missing directory."""
    paths = write_pipeline_fixture(tmp_path)
    _write_ring_graph(tmp_path, ["Alpha", "Beta", "Gamma", "Delta"])
    rng = np.random.default_rng(8)
    tokens = [f"t{i}" for i in range(8)]
    _write_embeddings(tmp_path / "domain.vec", tokens, rng.standard_normal((8, 3)))
    _write_embeddings(tmp_path / "semantic.vec", tokens[:5], rng.standard_normal((5, 3)))
    (tmp_path / "terms.txt").write_text("term-00\n")
    (tmp_path / "no_types.json").write_text(json.dumps({"extraction": {"node_types": []}}))
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "blank.txt").write_text("\n  \n\n")
    for name in ("nodes.tsv", "edges.tsv", "domain.vec", "semantic.vec", "terms.txt",
                 "no_types.json", "empty.txt", "blank.txt"):
        paths[name.split(".")[0]] = tmp_path / name
    paths.update(absent=tmp_path / "absent.txt", nodir=tmp_path / "nodir")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("case", BAD_RUNS)
def test_bad_value_exits_before_out_dir_is_created(tmp_path, capsys, case):
    argv, named = BAD_RUNS[case]
    paths = _stage_inputs(tmp_path)
    out = tmp_path / "new_out"
    assert main([arg.format(**paths) for arg in argv] + ["--out-dir", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "nodir").exists()


# an output flag that names one of the stage's inputs, and that input's {name}
OVERWRITING_RUNS = {
    "impute --merged-out its --semantic": (
        ["impute", "--semantic", "{semantic}", "--domain", "{domain}", "--k", "2",
         "--merged-out", "{semantic}"], "semantic"),
    "node2vec --walks-out its --nodes": (
        ["node2vec", "--nodes", "{nodes}", "--edges", "{edges}", "--walks-out", "{nodes}"],
        "nodes"),
    "pipeline --merged-out its --dataset": (
        ["--config", "{config}", "pipeline", "--dump", "{dump}", "--corpus", "{corpus}",
         "--dataset", "{dataset}", "--merged-out", "{dataset}"], "dataset"),
}


@pytest.mark.parametrize("case", OVERWRITING_RUNS)
def test_output_flag_naming_an_input_is_refused(tmp_path, capsys, case):
    argv, name = OVERWRITING_RUNS[case]
    paths = _stage_inputs(tmp_path)
    before = Path(paths[name]).read_bytes()
    out = tmp_path / "new_out"
    assert main([arg.format(**paths) for arg in argv] + ["--out-dir", str(out)]) == 1
    assert "is an input of this stage" in capsys.readouterr().err
    assert Path(paths[name]).read_bytes() == before
    assert not out.exists()


def test_manifest_records_input_digest_from_before_the_run(tmp_path):
    # the input has the name of impute's fixed output, so the run replaces it
    paths = _stage_inputs(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    semantic = out / "imputed.vec"
    semantic.write_bytes(Path(paths["semantic"]).read_bytes())
    before = hashlib.sha256(semantic.read_bytes()).hexdigest()
    assert main(["impute", "--semantic", str(semantic), "--domain", paths["domain"], "--k", "2",
                 "--out-dir", str(out)]) == 0
    assert hashlib.sha256(semantic.read_bytes()).hexdigest() != before
    manifest = json.loads((out / "impute_manifest.json").read_text())
    assert manifest["inputs"]["semantic"]["sha256"] == before


def test_extract_graph_subcommand(fixture_files):
    files, tmp_path = fixture_files
    out = tmp_path / "graph_out"
    code = main([
        "extract-graph", "--dump", str(files["dump"]),
        "--node-type", "ConceptType", "--out-dir", str(out),
    ])
    assert code == 0
    nodes = (out / "nodes.tsv").read_text().strip().splitlines()
    edges = (out / "edges.tsv").read_text().strip().splitlines()
    assert len(nodes) == 20
    assert len(edges) == 40  # ring + skip-2 chords
    manifest = json.loads((out / "extract_graph_manifest.json").read_text())
    assert manifest["stage"] == "extract-graph"
    assert "config_hash" in manifest and manifest["inputs"]["dump"]["sha256"]
    assert manifest["health"] == {
        "n_nodes": 20, "n_edges": 40, "min_degree": 4, "max_degree": 4, "mean_degree": 4.0,
        "isolated_nodes": 0, "malformed_lines": 0, "blank_node_lines": 0,
        "typed_subjects": 20, "kept_rows": 80, "unkept_lines": 0,
    }


def test_filter_corpus_subcommand(fixture_files):
    files, tmp_path = fixture_files
    terms = tmp_path / "terms.txt"
    terms.write_text("term-00\nterm-01\n")
    out = tmp_path / "filter_out"
    assert main(["filter-corpus", "--corpus", str(files["corpus"]),
                 "--terms", str(terms), "--out-dir", str(out)]) == 0
    stats = json.loads((out / "filter_stats.json").read_text())
    assert stats["removed_sentences"] > 0
    filtered = (out / "filtered_corpus.txt").read_text()
    assert "term-00" not in filtered and "term-01" not in filtered


def test_filter_corpus_refuses_to_overwrite_its_input(fixture_files, capsys):
    files, tmp_path = fixture_files
    out = tmp_path / "out"
    out.mkdir()
    corpus = out / "filtered_corpus.txt"
    corpus.write_bytes(files["corpus"].read_bytes())
    terms = tmp_path / "terms.txt"
    terms.write_text("term-00\n")
    assert main(["filter-corpus", "--corpus", str(corpus), "--terms", str(terms),
                 "--out-dir", str(out)]) == 1
    assert "is the input corpus" in capsys.readouterr().err
    assert corpus.read_bytes() == files["corpus"].read_bytes()


def test_impute_flag_beats_config_beats_default(tmp_path):
    rng = np.random.default_rng(0)
    domain_tokens = [f"t{i}" for i in range(12)]
    _write_embeddings(tmp_path / "domain.vec", domain_tokens, rng.standard_normal((12, 4)))
    _write_embeddings(tmp_path / "semantic.vec", domain_tokens[:8], rng.standard_normal((8, 4)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lsi": {"k": 4, "eta": 1e-3}}))

    # all three sources set for eta: flag wins; k comes from config; max_iters default
    out = tmp_path / "out1"
    assert main(["--config", str(config), "impute",
                 "--semantic", str(tmp_path / "semantic.vec"),
                 "--domain", str(tmp_path / "domain.vec"),
                 "--eta", "1e-6", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "impute_manifest.json").read_text())
    assert manifest["config"]["eta"] == 1e-6
    assert manifest["config"]["k"] == 4
    assert manifest["config"]["max_iters"] == 10000

    # without the flag the config value applies
    out2 = tmp_path / "out2"
    assert main(["--config", str(config), "impute",
                 "--semantic", str(tmp_path / "semantic.vec"),
                 "--domain", str(tmp_path / "domain.vec"),
                 "--out-dir", str(out2)]) == 0
    manifest2 = json.loads((out2 / "impute_manifest.json").read_text())
    assert manifest2["config"]["eta"] == 1e-3


def test_impute_deterministic_artifacts(tmp_path):
    rng = np.random.default_rng(1)
    domain_tokens = [f"t{i}" for i in range(15)]
    _write_embeddings(tmp_path / "domain.vec", domain_tokens, rng.standard_normal((15, 5)))
    _write_embeddings(tmp_path / "semantic.vec", domain_tokens[:9], rng.standard_normal((9, 6)))
    args = ["impute", "--semantic", str(tmp_path / "semantic.vec"),
            "--domain", str(tmp_path / "domain.vec"), "--k", "3"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "imputed.vec").read_bytes() == \
        (tmp_path / "b" / "imputed.vec").read_bytes()


def test_impute_writes_report_and_merged(tmp_path):
    rng = np.random.default_rng(2)
    domain_tokens = [f"t{i}" for i in range(10)]
    _write_embeddings(tmp_path / "domain.vec", domain_tokens, rng.standard_normal((10, 4)))
    _write_embeddings(tmp_path / "semantic.vec", domain_tokens[:6], rng.standard_normal((6, 4)))
    merged_path = tmp_path / "merged.vec"
    assert main(["impute", "--semantic", str(tmp_path / "semantic.vec"),
                 "--domain", str(tmp_path / "domain.vec"), "--k", "2",
                 "--merged-out", str(merged_path), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "impute_report.json").read_text())
    assert report["imputed_tokens"] == 4
    assert report["converged"] is True
    merged = read_embeddings(str(merged_path))
    assert len(merged) == 10
    assert set(report) == {"imputed_tokens", "iterations", "residual", "converged",
                           "fallback_rows", "unreachable_tokens"}
    # 4 semantic columns make one column block, solved inline
    health = json.loads((tmp_path / "impute_manifest.json").read_text())["health"]
    assert health.pop("anchor_hops_max") >= 1  # every imputed row reaches an anchor
    graph = knn_mst(read_embeddings(str(tmp_path / "domain.vec")), 2)
    assert graph.health["boruvka_rounds"] >= 1 and graph.health["min_degree"] >= 2
    assert health == {
        "iterations": report["iterations"], "residual": report["residual"],
        "column_blocks": 1, "block_iterations_min": report["iterations"],
        "block_iterations_max": report["iterations"], "threads": 1,
        "unreachable_nodes": 0, **graph.health,
    }
    assert health["iterations"] >= 1


def test_invalid_config_field_reported(tmp_path):
    rng = np.random.default_rng(3)
    _write_embeddings(tmp_path / "d.vec", ["a", "b", "c"], rng.standard_normal((3, 2)))
    _write_embeddings(tmp_path / "s.vec", ["a", "b"], rng.standard_normal((2, 2)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lsi": {"kk": 4}}))
    code = main(["--config", str(config), "impute", "--semantic", str(tmp_path / "s.vec"),
                 "--domain", str(tmp_path / "d.vec"), "--out-dir", str(tmp_path)])
    assert code == 1


def test_impossible_embedding_header_is_input_error(tmp_path, capsys):
    # numpy would be asked for 1.46 TiB before the first row is read
    semantic = tmp_path / "semantic.vec"
    semantic.write_text("1000000000 200\na 1\n")
    _write_embeddings(tmp_path / "domain.vec", ["a", "b"], [[1.0], [2.0]])
    assert main(["impute", "--semantic", str(semantic), "--domain", str(tmp_path / "domain.vec"),
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert f"{semantic}:1: header declares 1000000000 rows" in capsys.readouterr().err


def test_align_baseline_subcommand(tmp_path):
    rng = np.random.default_rng(4)
    domain_tokens = [f"t{i}" for i in range(10)]
    _write_embeddings(tmp_path / "domain.vec", domain_tokens, rng.standard_normal((10, 4)))
    _write_embeddings(tmp_path / "semantic.vec", domain_tokens[:7], rng.standard_normal((7, 4)))
    assert main(["align-baseline", "--semantic", str(tmp_path / "semantic.vec"),
                 "--domain", str(tmp_path / "domain.vec"), "--out-dir", str(tmp_path)]) == 0
    aligned = read_embeddings(str(tmp_path / "aligned_oov.vec"))
    assert aligned.tokens == domain_tokens[7:]
    assert (tmp_path / "alignment_map.txt").exists()


def test_align_baseline_maps_across_dimensions(tmp_path):
    # a 4-d domain space onto a 6-d semantic space: the map is 4 x 6
    rng = np.random.default_rng(5)
    domain_tokens = [f"t{i}" for i in range(10)]
    _write_embeddings(tmp_path / "domain.vec", domain_tokens, rng.standard_normal((10, 4)))
    _write_embeddings(tmp_path / "semantic.vec", domain_tokens[:7], rng.standard_normal((7, 6)))
    assert main(["align-baseline", "--semantic", str(tmp_path / "semantic.vec"),
                 "--domain", str(tmp_path / "domain.vec"), "--out-dir", str(tmp_path)]) == 0
    aligned = read_embeddings(str(tmp_path / "aligned_oov.vec"))
    assert (aligned.tokens, aligned.dim) == (domain_tokens[7:], 6)


def test_train_sgns_subcommand(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join("a b a b c\n" for _ in range(30)))
    assert main(["train-sgns", "--corpus", str(corpus), "--dim", "8",
                 "--epochs", "2", "--window", "2", "--negative", "2",
                 "--min-count", "1", "--sample", "0", "--out-dir", str(tmp_path)]) == 0
    emb = read_embeddings(str(tmp_path / "embeddings.vec"))
    assert set(emb.tokens) == {"a", "b", "c"} and emb.dim == 8
    health = json.loads((tmp_path / "train_sgns_manifest.json").read_text())["health"]
    assert len(health["epoch_loss"]) == 2 and health["tokens_per_s"] > 0


def test_train_sgns_reads_gzipped_corpus(tmp_path):
    text = "".join(f"a b{i % 3} a c {i % 5}\n" for i in range(40))
    (tmp_path / "corpus.txt").write_text(text)
    with gzip.open(tmp_path / "corpus.txt.gz", "wt", encoding="utf-8") as fh:
        fh.write(text)
    for name in ("corpus.txt", "corpus.txt.gz"):
        assert main(["train-sgns", "--corpus", str(tmp_path / name), "--dim", "6",
                     "--epochs", "2", "--window", "2", "--negative", "2", "--sample", "0",
                     "--out-dir", str(tmp_path / name.replace(".", "_"))]) == 0
    plain = (tmp_path / "corpus_txt" / "embeddings.vec").read_bytes()
    assert (tmp_path / "corpus_txt_gz" / "embeddings.vec").read_bytes() == plain


def _write_ring_graph(tmp_path, labels):
    nodes, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    nodes.write_text("".join(f"n{i}\t{label}\n" for i, label in enumerate(labels)))
    edges.write_text("".join(f"n{i}\tn{(i + 1) % len(labels)}\n" for i in range(len(labels))))
    return ["node2vec", "--nodes", str(nodes), "--edges", str(edges), "--dim", "4",
            "--epochs", "3", "--window", "2", "--negative", "2", "--min-count", "1",
            "--n-walks", "2", "--walk-length", "6", "--out-dir", str(tmp_path / "out")]


def test_node2vec_manifest_records_sgns_health(tmp_path):
    args = _write_ring_graph(tmp_path, ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"])
    with open(tmp_path / "nodes.tsv", "a") as fh:
        fh.write("n5\tLonely\n")
    assert main(args) == 0
    manifest = json.loads((tmp_path / "out" / "node2vec_manifest.json").read_text())
    assert len(manifest["health"]["epoch_loss"]) == 3
    assert manifest["health"]["tokens_per_s"] > 0
    assert manifest["health"]["isolated_nodes"] == 1


@pytest.mark.parametrize("name", ["walks.txt", "walks.txt.gz", "out/walks.txt"])
def test_node2vec_walks_out_holds_every_walk(tmp_path, name):
    args = _write_ring_graph(tmp_path, ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"])
    with open(tmp_path / "nodes.tsv", "a") as fh:
        fh.write("n5\tLonely\n")  # isolated: starts no walk
    walks_path = tmp_path / name
    assert main(args + ["--walks-out", str(walks_path)]) == 0
    assert (walks_path.read_bytes()[:2] == b"\x1f\x8b") == name.endswith(".gz")  # gzip magic
    walks = read_corpus(str(walks_path))
    assert len(walks) == 2 * 5  # n_walks x non-isolated nodes
    assert all(len(walk) == 6 for walk in walks)  # walk_length tokens each
    assert {tok for walk in walks for tok in walk} == {"alpha", "beta", "gamma", "delta", "epsilon"}
    manifest = json.loads((tmp_path / "out" / "node2vec_manifest.json").read_text())
    assert str(walks_path) in manifest["outputs"]


@pytest.mark.parametrize("label", ["", "Be\u00a0ta"], ids=["empty", "nbsp"])
def test_node2vec_empty_label_fails_without_partial_file(tmp_path, capsys, monkeypatch, label):
    # an empty label, or one with a no-break space, gives a walk token that no
    # embedding file can hold; it must fail before SGNS starts
    def no_training(*args, **kwargs):
        raise AssertionError("SGNS ran")

    monkeypatch.setattr("lsimpute.cli.train_sgns_full", no_training)
    assert main(_write_ring_graph(tmp_path, ["Alpha", label, "Gamma", "Delta"])) == 1
    err = capsys.readouterr().err
    assert f"node 'n1' (label {label!r})" in err and "empty or holds whitespace" in err
    assert not (tmp_path / "out" / "domain_embeddings.vec").exists()


def test_evaluate_no_embeddable_pairs_fails_with_counts(tmp_path, capsys):
    _write_embeddings(tmp_path / "emb.vec", ["zz"], [[1.0, 2.0]])
    dataset = tmp_path / "pairs.csv"
    dataset.write_text("Term1,Term2,Similarity,Relatedness\nfoo,bar,10,10\nbaz,qux,20,20\n")
    code = main(["evaluate", "--embeddings", str(tmp_path / "emb.vec"),
                 "--dataset", str(dataset), "--split-seed", "1",
                 "--resamples", "10", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "subset sizes" in err
    # the report says what went wrong; a manifest is written only on exit 0
    assert (tmp_path / "eval_report.json").exists()
    assert not (tmp_path / "evaluate_manifest.json").exists()


@pytest.mark.parametrize("resamples, code", [("1", 0), ("0", 1), ("-3", 1)])
def test_evaluate_needs_one_resample(fixture_files, capsys, resamples, code):
    files, tmp_path = fixture_files
    terms = sorted(load_wordpair_dataset(str(files["dataset"])).terms())
    rng = np.random.default_rng(6)
    _write_embeddings(tmp_path / "emb.vec", terms, rng.standard_normal((len(terms), 4)))
    assert main(["evaluate", "--embeddings", str(tmp_path / "emb.vec"),
                 "--dataset", str(files["dataset"]), "--resamples", resamples,
                 "--out-dir", str(tmp_path / "eval")]) == code
    if code:
        assert "resamples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()


def test_extract_graph_rejects_label_with_tab_or_newline(tmp_path, capsys):
    dump = tmp_path / "dump.nt"
    dump.write_text(
        f"<a> <{RDF_TYPE}> <T> .\n<b> <{RDF_TYPE}> <T> .\n<a> <linked> <b> .\n"
        f'<a> <{RDFS_LABEL}> "Heart\\tAttack" .\n<b> <{RDFS_LABEL}> "Lung\\nCancer" .\n',
        encoding="utf-8",
    )
    code = main(["extract-graph", "--dump", str(dump), "--node-type", "T",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "tab or line break" in capsys.readouterr().err


def test_extract_graph_reports_malformed_and_blank_node_lines(tmp_path, capsys):
    dump = tmp_path / "dump.nt"
    dump.write_text(
        f"<a> <{RDF_TYPE}> <T> .\n<b> <{RDF_TYPE}> <T> .\n<a> <linked> <b> .\n"
        f'<a> <{RDFS_LABEL}> "A" .\n<b> <{RDFS_LABEL}> "B" .\n'
        "_:x <linked> <a> .\n<b> <linked> _:y .\nnot a triple\n<a> <note> \"scope note\" .\n",
        encoding="utf-8",
    )
    code = main(["extract-graph", "--dump", str(dump), "--node-type", "T",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert ("extracted 2 nodes and 1 edges (skipped 1 malformed lines, 2 blank-node lines)"
            in capsys.readouterr().out)
    health = json.loads((tmp_path / "out" / "extract_graph_manifest.json").read_text())["health"]
    assert (health["malformed_lines"], health["blank_node_lines"]) == (1, 2)
    assert (health["typed_subjects"], health["kept_rows"], health["unkept_lines"]) == (2, 5, 1)


def test_each_input_is_hashed_once_per_main_call(fixture_files, monkeypatch):
    files, tmp_path = fixture_files
    hashed = []

    def recording_open(path, mode="r", *args, **kwargs):
        if mode == "rb":  # the manifest digest reads each input this way
            hashed.append(Path(path).resolve())
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert main(["--config", str(files["config"]), "pipeline", "--dump", str(files["dump"]),
                 "--corpus", str(files["corpus"]), "--dataset", str(files["dataset"]),
                 "--out-dir", str(tmp_path / "run")]) == 0
    # the pipeline's stages name the dump, corpus, dataset and imputed vocab again
    assert sorted(hashed) == sorted(set(hashed))
    assert {files[name].resolve() for name in ("dump", "corpus", "dataset")} <= set(hashed)
    hashed.clear()
    assert main(["extract-graph", "--dump", str(files["dump"]), "--node-type", "ConceptType",
                 "--out-dir", str(tmp_path / "graph")]) == 0
    assert hashed == [files["dump"].resolve()]  # a new call reads its inputs again


def test_pipeline_reads_paths_from_config(fixture_files):
    files, tmp_path = fixture_files
    config = json.loads(files["config"].read_text())
    config["paths"] = {
        "graph_dump": str(files["dump"]),
        "corpus": str(files["corpus"]),
        "dataset": str(files["dataset"]),
    }
    files["config"].write_text(json.dumps(config))
    out = tmp_path / "run_cfg"
    assert main(["--config", str(files["config"]), "pipeline", "--out-dir", str(out)]) == 0
    assert (out / "eval_report.json").exists()


def test_pipeline_runs_with_graph_and_text_dims_apart(fixture_files):
    files, tmp_path = fixture_files
    config = json.loads(files["config"].read_text())
    config["sgns_graph"]["dim"], config["sgns_text"]["dim"] = 64, 100
    files["config"].write_text(json.dumps(config))
    out = tmp_path / "run_dims"
    assert main(["--config", str(files["config"]), "pipeline", "--dump", str(files["dump"]),
                 "--corpus", str(files["corpus"]), "--dataset", str(files["dataset"]),
                 "--out-dir", str(out)]) == 0
    assert (out / "eval_report.json").exists()
    assert read_embeddings(str(out / "merged.vec")).dim == 100


def test_pipeline_end_to_end(fixture_files, capsys):
    files, tmp_path = fixture_files
    out = tmp_path / "run"
    code = main([
        "--config", str(files["config"]), "pipeline",
        "--dump", str(files["dump"]), "--corpus", str(files["corpus"]),
        "--dataset", str(files["dataset"]), "--out-dir", str(out),
    ])
    assert code == 0

    report = json.loads((out / "eval_report.json").read_text())
    assert set(report["subsets"]) == {"trained/trained", "imputed/trained", "imputed/imputed"}
    evaluable = [
        cell for per_subset in report["subsets"].values() for cell in per_subset.values()
        if cell["r"] is not None
    ]
    assert evaluable, "pipeline should produce at least one evaluable subset"

    merged = read_embeddings(str(out / "merged.vec"))
    imputed_vocab = (out / "imputed_vocab.txt").read_text().split()
    assert all(tok in merged for tok in imputed_vocab)

    for stage in ["filter_corpus", "train_sgns", "extract_graph", "node2vec",
                  "impute", "evaluate", "pipeline"]:
        assert (out / f"{stage}_manifest.json").exists(), stage
    # the alignment baseline is its own command, not a pipeline step
    for name in ["aligned_oov.vec", "alignment_map.txt", "baseline_merged.vec",
                 "align_baseline_manifest.json"]:
        assert not (out / name).exists(), name

    table = capsys.readouterr().out
    assert "trained/trained" in table


def test_pipeline_honours_merged_out(fixture_files):
    files, tmp_path = fixture_files
    out = tmp_path / "run_custom"
    merged_path = tmp_path / "elsewhere" / "custom.vec"
    merged_path.parent.mkdir()
    code = main([
        "--config", str(files["config"]), "pipeline",
        "--dump", str(files["dump"]), "--corpus", str(files["corpus"]),
        "--dataset", str(files["dataset"]), "--out-dir", str(out),
        "--merged-out", str(merged_path),
    ])
    assert code == 0
    assert not (out / "merged.vec").exists()
    merged = read_embeddings(str(merged_path))
    assert all(tok in merged for tok in (out / "imputed_vocab.txt").read_text().split())

    manifest = json.loads((out / "pipeline_manifest.json").read_text())
    evaluated = json.loads((out / "evaluate_manifest.json").read_text())
    assert str(merged_path) in manifest["outputs"]
    assert evaluated["inputs"]["embeddings"]["path"] == str(merged_path)
