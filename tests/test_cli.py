from __future__ import annotations

import json

import numpy as np
import pytest

from lsimpute import EmbeddingMatrix, read_embeddings, write_embeddings
from lsimpute.cli import main
from lsimpute.evaluation import load_wordpair_dataset

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
    assert health == {
        "iterations": report["iterations"], "residual": report["residual"],
        "column_blocks": 1, "block_iterations_min": report["iterations"],
        "block_iterations_max": report["iterations"], "threads": 1,
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
        "_:x <linked> <a> .\n<b> <linked> _:y .\nnot a triple\n",
        encoding="utf-8",
    )
    code = main(["extract-graph", "--dump", str(dump), "--node-type", "T",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert ("extracted 2 nodes and 1 edges (skipped 1 malformed lines, 2 blank-node lines)"
            in capsys.readouterr().out)
    health = json.loads((tmp_path / "out" / "extract_graph_manifest.json").read_text())["health"]
    assert (health["malformed_lines"], health["blank_node_lines"]) == (1, 2)


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
                  "impute", "align_baseline", "evaluate", "pipeline"]:
        assert (out / f"{stage}_manifest.json").exists(), stage

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
