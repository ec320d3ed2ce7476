"""The four benchmark workloads: set-up, one timed pass, and its checks.

A workload object reads its cached inputs in ``setup`` through lsimpute's own
readers, runs one timed pass in ``run`` (the benchmark repeats it), and
checks the last pass in ``check`` (every run) and ``check_traced`` (traced
runs only). Calls go through module attributes such as
``lsimpute.imputation.lsi_pipeline`` so that the tracer's wrappers see them.
This module imports only lsimpute and numpy at load time, so the set-up
probe measures the program's own imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import lsimpute
import lsimpute.cli

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench" / "out"


def _meta(entry: Path) -> dict:
    return json.loads((entry / "meta.json").read_text(encoding="utf-8"))


class ImputeWorkload:
    """``lsi_pipeline`` then ``merge_embeddings`` on a shared-latent pair."""

    def __init__(self, name: str, entry: Path) -> None:
        self.name, self.entry, self.meta = name, entry, _meta(entry)

    def setup(self) -> None:
        self.semantic = lsimpute.embeddings.read_embeddings(str(self.entry / "semantic.vec"))
        self.domain = lsimpute.embeddings.read_embeddings(str(self.entry / "domain.vec"))

    def prepare(self) -> None:
        pass

    def run(self):
        cfg = lsimpute.imputation.LsiConfig(k=self.meta["k"], eta=self.meta["eta"])
        result = lsimpute.imputation.lsi_pipeline(self.semantic, self.domain, cfg)
        merged = lsimpute.embeddings.merge_embeddings(self.semantic, result.imputed)
        return result, merged

    def digest(self, out) -> str:
        result, merged = out
        h = hashlib.sha256(merged.vectors.tobytes())
        h.update("\n".join(merged.tokens).encode())
        return h.hexdigest()

    def check(self, out, wall_s: float) -> tuple[list[str], dict]:
        import checks

        result, merged = out
        ref = np.load(self.entry / "ref.npz")
        hidden = (self.entry / "hidden.txt").read_text(encoding="utf-8").split()
        imputed = result.imputed
        failures = []
        metrics = {"vectors_per_s": len(imputed) / wall_s}
        if sorted(imputed.tokens) == sorted(hidden):
            vectors = imputed.vectors[[imputed.row_index(t) for t in hidden]]
            cos = checks.mean_cosine(vectors, ref["truth"])
            metrics["impute_cos"] = metrics["quality"] = cos
            metrics["impute_pair_r"] = checks.pair_cosine_r(vectors, ref["truth"])
        else:
            cos = float("nan")
        failures += checks.check_imputation(
            list(imputed.tokens), imputed.vectors, hidden, ref["imputed"], ref["hitting"],
            self.meta["eta"], cos, float(ref["baseline_cos"]))
        failures += checks.check_merge(
            list(self.semantic.tokens), self.semantic.vectors, list(merged.tokens),
            merged.vectors, hidden)
        return failures, metrics

    def check_traced(self, out, tracer) -> tuple[list[str], dict]:
        import checks

        ref = np.load(self.entry / "ref.npz")
        failures = []
        (domain, k), _, graph = tracer.captured["imputation.knn_mst"]
        sample = np.random.default_rng(0).choice(len(domain), size=min(25, len(domain)), replace=False)
        failures += checks.check_neighbor_graph(
            domain.vectors, graph.mst_edges, graph.knn_edges, graph.neighbors, k,
            ref["knn"], float(ref["mst_weight"]), sample)
        failures += checks.check_nnls_samples(tracer.nnls_samples)
        weights = tracer.captured["imputation.solve_weights"][2]
        failures += checks.check_weights(weights.matrix, sorted(weights.anchor_rows))

        (weights, anchors, semantic, tokens, cfg), _, result = tracer.captured["imputation.impute"]
        anchor_rows = np.array([d for _, d in anchors.pairs])
        anchor_vectors = semantic.vectors[[s for s, _ in anchors.pairs]]
        unknown, exact, hitting = checks.exact_fixed_point(weights.matrix, anchor_rows, anchor_vectors)
        got = result.imputed.vectors[[result.imputed.row_index(tokens[i]) for i in unknown]]
        err = float(np.abs(got - exact).max())
        bound = cfg.eta * float(hitting.max())
        if not err <= bound * (1 + 1e-6) + 1e-9:
            failures.append(f"distance {err:.3g} from the fixed point of its own weights "
                            f"exceeds eta * max hitting time = {bound:.3g}")
        return failures, {"imputation.impute.fixed_point_err": err}


class Node2vecWorkload:
    """Transition tables, second-order walks and SGNS on a hub-heavy hierarchy."""

    walk_cfg = dict(p=0.5, q=0.5, n_walks=2, walk_length=16, seed=1)
    sgns_cfg = dict(dim=64, window=5, epochs=2, negative=5, alpha=0.1, sample=0.0,
                    min_count=1, seed=1)

    def __init__(self, name: str, entry: Path) -> None:
        self.name, self.entry, self.meta = name, entry, _meta(entry)

    def setup(self) -> None:
        self.graph = lsimpute.graph.read_graph_tsv(str(self.entry / "nodes.tsv"),
                                                   str(self.entry / "edges.tsv"))

    def prepare(self) -> None:
        pass

    def run(self):
        wcfg = lsimpute.walks.WalkConfig(**self.walk_cfg)
        sampler = lsimpute.walks.build_transition_tables(self.graph, wcfg)
        walks = lsimpute.walks.generate_walks(sampler, self.graph, wcfg)
        trained = lsimpute.sgns.train_sgns_full(walks, lsimpute.sgns.SgnsConfig(**self.sgns_cfg))
        return walks, trained

    def digest(self, out) -> str:
        walks, trained = out
        h = hashlib.sha256(trained.embeddings.vectors.tobytes())
        h.update("\n".join(" ".join(w) for w in walks).encode())
        return h.hexdigest()

    def check(self, out, wall_s: float) -> tuple[list[str], dict]:
        import checks

        walks, trained = out
        ref = np.load(self.entry / "ref.npz")
        n = int(self.meta["n_nodes"])
        # labels are "Concept <index>", so a node's token carries its planted index
        node_of = {f"concept-{i:05d}": i for i in range(n)}
        edges = {(int(a), int(b)) for a, b in ref["edges"]}
        failures = checks.check_walks(walks, node_of, edges, n, self.walk_cfg["n_walks"],
                                      self.walk_cfg["walk_length"])
        emb = trained.embeddings
        if not np.isfinite(emb.vectors).all():
            failures.append("non-finite node vectors")
        loss = trained.epoch_loss
        if not (len(loss) >= 2 and loss[-1] < loss[0]):
            failures.append(f"SGNS loss did not fall: {loss}")
        blocks = ref["blocks"][[node_of[t] for t in emb.tokens]]
        purity = checks.block_purity(emb.vectors, blocks)
        chance = float(np.mean([(blocks == b).sum() - 1 for b in blocks])) / (len(blocks) - 1)
        if not purity >= 3 * chance:
            failures.append(f"block purity {purity:.3f} is not 3x chance ({chance:.3f})")
        metrics = {"vectors_per_s": len(emb) / wall_s, "embed_purity": purity, "quality": purity}
        return failures, metrics

    def check_traced(self, out, tracer) -> tuple[list[str], dict]:
        return [], {}


class PipelineWorkload:
    """``lsimpute pipeline`` in-process through ``lsimpute.cli.main``."""

    def __init__(self, name: str, entry: Path) -> None:
        self.name, self.entry, self.meta = name, entry, _meta(entry)
        self.out = OUT / name / entry.name

    def setup(self) -> None:
        pass  # the CLI reads its inputs inside the timed pass

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        e = self.entry
        argv = ["--config", str(e / "config.json"), "pipeline", "--dump", str(e / "dump.nt"),
                "--corpus", str(e / "corpus.txt"), "--dataset", str(e / "pairs.csv"),
                "--out-dir", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = lsimpute.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"lsimpute pipeline exited with {code}")
        return self.out

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for name in ("merged.vec", "eval_report.json", "nodes.tsv", "edges.tsv"):
            h.update((out / name).read_bytes())
        return h.hexdigest()

    def check(self, out, wall_s: float) -> tuple[list[str], dict]:
        import checks

        dataset = lsimpute.evaluation.load_wordpair_dataset(str(self.entry / "pairs.csv"))
        failures = checks.check_pipeline_files(out, self.entry, dataset.terms())
        report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))["subsets"]
        r = {name: cells["similarity"]["r"] for name, cells in report.items()}
        metrics = {}
        if None in r.values():
            failures.append(f"evaluation left a subset unscored: {r}")
        else:
            metrics["eval_r_imputed"] = (r["imputed/trained"] + r["imputed/imputed"]) / 2
            metrics["quality"] = metrics["eval_r_imputed"]
            metrics["eval_r_trained"] = r["trained/trained"]
        n_imputed = json.loads((out / "impute_report.json").read_text())["imputed_tokens"]
        metrics["vectors_per_s"] = n_imputed / wall_s
        return failures, metrics

    def check_traced(self, out, tracer) -> tuple[list[str], dict]:
        return [], {}


WORKLOADS = {
    "impute-paper-ratio": ImputeWorkload,
    "impute-rare-anchors": ImputeWorkload,
    "node2vec-hubs": Node2vecWorkload,
    "pipeline-dump": PipelineWorkload,
}


def make(name: str, entry: Path):
    return WORKLOADS[name](name, entry)


if __name__ == "__main__":
    # set-up probe: import, read the inputs, report readiness on stdout
    workload = make(sys.argv[1], Path(sys.argv[2]))
    workload.setup()
    print("ready", flush=True)
