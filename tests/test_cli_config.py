"""Config sections, their generated flags, and how the CLI reports bad input."""

from __future__ import annotations

import json

import pytest

from lsimpute.cli import DEFAULTS, main

from conftest import RDF_TYPE, RDFS_LABEL, write_pipeline_fixture

# Flags whose name is not the field's; every other field's flag is --<field>.
RENAMED = {
    ("walks", "seed"): "--walk-seed",
    ("extraction", "node_types"): "--node-type",
    ("extraction", "bridge_types"): "--bridge-type",
    ("paths", "graph_dump"): "--dump",
}

# One non-default value per flag, small enough for the fixture pipeline. A
# field added to a config class gets a flag and must get a value here.
VALUES = {
    "--node-type": "ConceptType", "--bridge-type": "urn:bridge",
    "--label-predicate": "urn:label", "--type-predicate": "urn:type",
    "--p": 0.7, "--q": 0.9, "--n-walks": 3, "--walk-length": 6, "--walk-seed": 5,
    "--dim": 12, "--epochs": 2, "--negative": 3, "--alpha": 0.04, "--sample": 0.0,
    "--window": 2, "--min-count": 2, "--seed": 7,
    "--k": 4, "--eta": 1e-5, "--max-iters": 5000, "--unreachable-policy": "anchor-mean",
    "--resamples": 20, "--split-seed": 2,
}

# where each stage section is recorded: (manifest, key under "config" or None)
RECORDED = {
    "extraction": ("extract_graph", None),
    "walks": ("node2vec", "walks"),
    "sgns_graph": ("node2vec", "sgns"),
    "sgns_text": ("train_sgns", None),
    "lsi": ("impute", None),
    "evaluate": ("evaluate", None),
}


def _flag(section: str, key: str) -> str:
    return RENAMED.get((section, key), "--" + key.replace("_", "-"))


def _argv(sections) -> list[str]:
    flags = sorted({_flag(s, k) for s in sections for k in DEFAULTS[s]})
    return [tok for flag in flags for tok in (flag, str(VALUES[flag]))]


def _manifest(out, name: str) -> dict:
    return json.loads((out / f"{name}_manifest.json").read_text())


def _assert_recorded(section: str, recorded: dict) -> None:
    for key, default in DEFAULTS[section].items():
        value = VALUES[_flag(section, key)]
        assert value != default, (section, key)
        expected = [value] if isinstance(default, list) else value
        assert recorded[key] == expected, f"{section}.{key} via {_flag(section, key)}"


@pytest.fixture()
def fixture_files(tmp_path):
    return write_pipeline_fixture(tmp_path), tmp_path


def test_every_config_field_has_a_flag_on_its_stage_and_on_pipeline(fixture_files):
    files, tmp_path = fixture_files
    # the dump under the non-default predicates the flags name
    dump = tmp_path / "renamed.nt"
    dump.write_text(files["dump"].read_text()
                    .replace(RDF_TYPE, VALUES["--type-predicate"])
                    .replace(RDFS_LABEL, VALUES["--label-predicate"]))
    paths = {"--dump": str(dump), "--corpus": str(files["corpus"]),
             "--dataset": str(files["dataset"])}
    assert set(RECORDED) | {"paths"} == set(DEFAULTS)

    run = tmp_path / "pipeline"
    argv = [tok for flag, path in paths.items() for tok in (flag, path)]
    assert main(["pipeline", *argv, *_argv(RECORDED), "--out-dir", str(run)]) == 0
    pipeline = _manifest(run, "pipeline")
    for key in DEFAULTS["paths"]:
        name = _flag("paths", key).lstrip("-")
        assert pipeline["inputs"][name]["path"] == paths["--" + name]
    for section, (manifest, part) in RECORDED.items():
        _assert_recorded(section, pipeline["config"][section])
        config = _manifest(run, manifest)["config"]
        _assert_recorded(section, config[part] if part else config)

    inputs = {
        "extract-graph": ["--dump", str(dump)],
        "node2vec": ["--nodes", str(run / "nodes.tsv"), "--edges", str(run / "edges.tsv")],
        "train-sgns": ["--corpus", str(run / "filtered_corpus.txt")],
        "impute": ["--semantic", str(run / "embeddings.vec"),
                   "--domain", str(run / "domain_embeddings.vec")],
        "evaluate": ["--embeddings", str(run / "merged.vec"), "--dataset", str(files["dataset"])],
    }
    for command, stage_inputs in inputs.items():
        name = command.replace("-", "_")
        sections = [s for s, (manifest, _) in RECORDED.items() if manifest == name]
        out = tmp_path / name
        assert main([command, *stage_inputs, *_argv(sections), "--out-dir", str(out)]) == 0
        config = _manifest(out, name)["config"]
        for section in sections:
            part = RECORDED[section][1]
            _assert_recorded(section, config[part] if part else config)


def test_pipeline_manifest_hash_follows_every_stage_section(fixture_files):
    files, tmp_path = fixture_files
    hashes = []
    for k in ("3", "4"):
        out = tmp_path / f"k{k}"
        assert main(["--config", str(files["config"]), "pipeline",
                     "--dump", str(files["dump"]), "--corpus", str(files["corpus"]),
                     "--dataset", str(files["dataset"]), "--k", k, "--out-dir", str(out)]) == 0
        pipeline = _manifest(out, "pipeline")
        assert pipeline["config"]["lsi"]["k"] == int(k)
        assert pipeline["config_hash"] != _manifest(out, "evaluate")["config_hash"]
        hashes.append(pipeline["config_hash"])
    assert hashes[0] != hashes[1]


def test_usage_error_names_the_bad_flag(capsys):
    assert main(["impute", "--bogus", "1"]) == 1
    err = capsys.readouterr().err
    assert "lsimpute: error:" in err and "--bogus" in err


@pytest.mark.parametrize("paths, named", [
    (["x"], "'paths'"),
    ({"graph-dump": "x"}, "paths.graph-dump"),
])
def test_bad_paths_section_is_input_error(fixture_files, capsys, paths, named):
    files, tmp_path = fixture_files
    config = json.loads(files["config"].read_text())
    config["paths"] = paths
    files["config"].write_text(json.dumps(config))
    code = main(["--config", str(files["config"]), "pipeline",
                 "--dump", str(files["dump"]), "--corpus", str(files["corpus"]),
                 "--dataset", str(files["dataset"]), "--out-dir", str(tmp_path / "run")])
    assert code == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("sections, named", [
    ({"extraction": {"node_types": "ConceptType"}}, "extraction.node_types: expected list"),
    ({"extraction": {"label_predicate": 3}}, "extraction.label_predicate: expected str"),
    ({"lsi": {"k": True}}, "lsi.k: expected int"),
    ({"extraction": {"node_types": ["ConceptType"]}, "walks": {"p": float("nan")}},
     "invalid walks configuration: p and q must be finite and positive, got p=nan"),
    ({"sgns_text": {"sample": float("nan")}},
     "invalid sgns_text configuration: sample must be finite"),
    # values the stages would reject only when they run
    ({"extraction": {"node_types": ["ConceptType"]}, "lsi": {"k": 0}},
     "invalid lsi configuration: k must be >= 1, got 0"),
    ({"extraction": {"node_types": ["ConceptType"]}, "evaluate": {"resamples": 0}},
     "invalid evaluate configuration: resamples must be >= 1, got 0"),
    ({"extraction": {"node_types": ["ConceptType"]}, "walks": {"seed": -1}},
     "invalid walks configuration: seed must be >= 0, got -1"),
    ({"extraction": {"node_types": ["ConceptType"]}, "sgns_graph": {"seed": -2}},
     "invalid sgns_graph configuration: seed must be >= 0, got -2"),
    ({"extraction": {"node_types": ["ConceptType"]}, "evaluate": {"seed": -1}},
     "invalid evaluate configuration: seed must be >= 0, got -1"),
    ({"extraction": {"node_types": ["ConceptType"]}, "evaluate": {"split_seed": -3}},
     "invalid evaluate configuration: split_seed must be >= 0, got -3"),
    ({"extraction": {"node_types": [1, "http://x/T"]}},
     "extraction.node_types: expected list of str, got [1, 'http://x/T']"),
])
def test_mistyped_config_field_is_input_error(fixture_files, capsys, sections, named):
    files, tmp_path = fixture_files
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(sections))
    out = tmp_path / "run"
    assert main(["--config", str(config), "pipeline", "--dump", str(files["dump"]),
                 "--corpus", str(files["corpus"]), "--dataset", str(files["dataset"]),
                 "--out-dir", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()  # every value is checked before the first stage


def test_removed_workers_field_is_rejected(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\n")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"sgns_text": {"workers": 2}}))
    assert main(["--config", str(config), "train-sgns", "--corpus", str(corpus),
                 "--out-dir", str(tmp_path)]) == 1
    assert "sgns_text.workers: unknown field" in capsys.readouterr().err
