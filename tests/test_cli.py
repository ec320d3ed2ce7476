from __future__ import annotations

import json

import numpy as np
import pytest

from lsimpute import EmbeddingMatrix, read_embeddings, write_embeddings
from lsimpute.cli import main

from conftest import write_pipeline_fixture


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
