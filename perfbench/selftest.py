"""Self-test of the benchmark's checks, at tiny sizes.

Every workload runs once, traced, on tiny inputs; its outputs must pass all
checks. Then single corruptions are put into those outputs (one imputed row,
one merged anchor row, one kNN edge, one walk step, one edge of the
extracted graph, one kept sentence) and the matching check must fail.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import checks
import gen
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / "selftest"

TINY = {
    "impute-paper-ratio": {"n": 120, "extra": 30, "latent": 4, "dim": 24, "k": 6,
                           "eta": 1e-4, "noise": 0.25},
    "impute-rare-anchors": {"n": 200, "extra": 20, "anchor_share": 0.05, "curve_dim": 8, "tube": 2.0,
                            "dim": 16, "k": 4, "eta": 1e-4},
    "node2vec-hubs": {"n": 80, "block": 10, "hubs": 1, "hub_degree": 15,
                      "mean_degree": 3.9, "cross_share": 0.06},
    "pipeline-dump": {"descriptors": 80, "block": 20, "dataset_terms": 80, "noise_terms": 100,
                      "sentences": 3000, "fillers": 10, "filler_words": 4},
}


def _corrupt_impute(wl, out, tracer) -> list[tuple[str, list[str]]]:
    result, merged = out
    ref = np.load(wl.entry / "ref.npz")
    hidden = (wl.entry / "hidden.txt").read_text().split()
    imputed = result.imputed
    vectors = imputed.vectors.copy()
    vectors[0, 0] += 0.05
    bad_row = checks.check_imputation(list(imputed.tokens), vectors, hidden, ref["imputed"],
                                      ref["hitting"], wl.meta["eta"], 1.0, 0.0)

    base = wl.semantic
    anchor = next(i for i, t in enumerate(base.tokens) if t in wl.domain)
    merged_vectors = merged.vectors.copy()
    merged_vectors[anchor, 0] = np.nextafter(merged_vectors[anchor, 0], np.inf)
    bad_merge = checks.check_merge(list(base.tokens), base.vectors, list(merged.tokens),
                                   merged_vectors, hidden)

    (domain, k), _, graph = tracer.captured["imputation.knn_mst"]
    knn = set(graph.knn_edges)
    knn.discard(sorted(knn)[0])
    bad_knn = checks.check_neighbor_graph(domain.vectors, graph.mst_edges, knn, graph.neighbors,
                                          k, ref["knn"], float(ref["mst_weight"]),
                                          np.arange(len(domain)))
    return [("imputed row", bad_row), ("merged anchor row", bad_merge), ("kNN edge", bad_knn)]


def _corrupt_node2vec(wl, out, tracer) -> list[tuple[str, list[str]]]:
    walks, _ = out
    ref = np.load(wl.entry / "ref.npz")
    n = int(wl.meta["n_nodes"])
    node_of = {f"concept-{i:05d}": i for i in range(n)}
    edges = {(int(a), int(b)) for a, b in ref["edges"]}
    first = node_of[walks[0][0]]
    stranger = next(j for j in range(n) if j != first and (min(first, j), max(first, j)) not in edges)
    broken = [list(w) for w in walks]
    broken[0][1] = f"concept-{stranger:05d}"
    return [("walk step", checks.check_walks(broken, node_of, edges, n, wl.walk_cfg["n_walks"],
                                             wl.walk_cfg["walk_length"]))]


def _corrupt_pipeline(wl, out, tracer) -> list[tuple[str, list[str]]]:
    terms = workloads.lsimpute.evaluation.load_wordpair_dataset(str(wl.entry / "pairs.csv")).terms()
    found = []
    for name in ("edges.tsv", "filtered_corpus.txt"):
        path = out / name
        original = path.read_bytes()
        path.write_bytes(b"".join(original.splitlines(keepends=True)[:-1]))
        try:
            found.append((f"line dropped from {name}", checks.check_pipeline_files(out, wl.entry, terms)))
        finally:
            path.write_bytes(original)
    return found


CORRUPTIONS = {
    "impute-paper-ratio": _corrupt_impute,
    "impute-rare-anchors": _corrupt_impute,
    "node2vec-hubs": _corrupt_node2vec,
    "pipeline-dump": _corrupt_pipeline,
}


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    problems = []
    for name, sizes in TINY.items():
        entry = gen.build(name, 1, force=True, root=WORK / "cache", sizes=sizes)
        wl = workloads.make(name, entry)
        if isinstance(wl, workloads.PipelineWorkload):
            wl.out = WORK / "out"
        tracer = Tracer()
        tracer.install()
        try:
            tracer.setup(wl.setup)
            wl.prepare()
            out = tracer.round(wl.run)
        finally:
            tracer.uninstall()
        clean = wl.check(out, 1.0)[0] + wl.check_traced(out, tracer)[0]
        if clean:
            problems.append(f"{name}: clean output failed its checks: {clean}")
        for label, failures in CORRUPTIONS[name](wl, out, tracer):
            status = "caught" if failures else "MISSED"
            print(f"{name}: corrupted {label}: {status}" + (f" ({failures[0]})" if failures else ""))
            if not failures:
                problems.append(f"{name}: corrupted {label} passed the checks")
    for p in problems:
        print("FAIL", p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
