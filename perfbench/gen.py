"""Seeded inputs and independent references for the benchmark workloads.

Each workload reads its inputs from ``.perfbench/cache/<workload>/seed-<n>/``
under the repository root. Everything there is made here from the seed
alone, with numpy and scipy; nothing in this file imports lsimpute, so the
references do not share code with the program they check.

Rebuild one entry, or every workload for a range of seeds:

    python3 perfbench/gen.py --workload impute-rare-anchors --seed 3
    python3 perfbench/gen.py --all --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import nnls as scipy_nnls
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.sparse.linalg import splu
from scipy.spatial.distance import cdist

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench" / "cache"
FORMAT = 10  # bump when a generator changes, so stale cache entries are rebuilt

WORKLOAD_IDS = {
    "impute-paper-ratio": 1,
    "impute-rare-anchors": 2,
    "node2vec-hubs": 3,
    "pipeline-dump": 4,
}

# MeSH 2021 as used by the paper: 12,676 anchors among 58,695 descriptors.
PAPER_ANCHOR_SHARE = 12676 / 58695

SIZES = {
    "impute-paper-ratio": {"n": 800, "extra": 300, "latent": 8, "dim": 200,
                           "k": 50, "eta": 1e-4, "noise": 0.25},
    "impute-rare-anchors": {"n": 2500, "extra": 400, "anchor_share": 0.02, "curve_dim": 32, "tube": 2.0,
                            "dim": 200, "k": 10, "eta": 1e-4},
    "node2vec-hubs": {"n": 600, "block": 50, "hubs": 4, "hub_degree": 100,
                      "mean_degree": 113094 * 2 / 58695, "cross_share": 0.06},
    "pipeline-dump": {"descriptors": 400, "block": 40, "dataset_terms": 400,
                      "noise_terms": 27000, "sentences": 30000, "fillers": 30, "filler_words": 10},
}


def entry_dir(workload: str, seed: int) -> Path:
    return CACHE / workload / f"seed-{seed}"


def _rng(workload: str, seed: int) -> np.random.Generator:
    """Per-seed stream: points, noise, anchors, graphs and texts."""
    return np.random.default_rng([WORKLOAD_IDS[workload], seed % 2**63])


def _shape_rng(workload: str) -> np.random.Generator:
    """Seed-independent stream for the maps and curves that set a workload's difficulty,
    so seeds vary the sample, not how hard the problem is."""
    return np.random.default_rng([WORKLOAD_IDS[workload]])


def write_vec(path: Path, tokens: list[str], vectors: np.ndarray) -> None:
    """word2vec text format with round-trip float reprs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {vectors.shape[1]}\n")
        for tok, row in zip(tokens, vectors.tolist()):
            fh.write(tok + " " + " ".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# independent LSI reference: brute-force kNN, scipy MST, scipy NNLS, sparse LU

def reference_lsi(domain: np.ndarray, anchor_rows: np.ndarray,
                  anchor_vectors: np.ndarray, k: int) -> dict[str, np.ndarray]:
    """Exact fixed point of the paper's construction, from scipy building blocks.

    Returns the imputed rows (non-anchor rows in index order), the kNN lists,
    the MST weight, and ``hitting`` = (I - W_uu)^-1 1, whose maximum bounds
    the distance of any iterate from the fixed point by that factor times
    the iterate's last step.
    """
    n = len(domain)
    dist = cdist(domain, domain)
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    knn = np.argsort(masked, axis=1, kind="stable")[:, :k]
    mst = minimum_spanning_tree(dist).tocoo()

    adj = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k)
    adj[rows, knn.ravel()] = True
    adj[mst.row, mst.col] = True
    adj |= adj.T

    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[anchor_rows] = True
    w_rows, w_cols, w_vals = [], [], []
    for i in np.flatnonzero(~is_anchor):
        nbrs = np.flatnonzero(adj[i])
        w, _ = scipy_nnls(domain[nbrs].T, domain[i])
        if w.sum() <= 0:  # no non-negative fit: uniform weights, as the method specifies
            w = np.ones(len(nbrs))
        w_rows.extend([i] * len(nbrs))
        w_cols.extend(nbrs.tolist())
        w_vals.extend((w / w.sum()).tolist())
    w = sp.csr_matrix((w_vals, (w_rows, w_cols)), shape=(n, n))
    unknown = np.flatnonzero(~is_anchor)
    w_uu = w[unknown][:, unknown]
    w_ua = w[unknown][:, anchor_rows]
    lu = splu(sp.csc_matrix(sp.identity(len(unknown)) - w_uu))
    imputed = lu.solve(np.asarray(w_ua @ anchor_vectors))
    hitting = lu.solve(np.ones(len(unknown)))
    return {
        "unknown_rows": unknown,
        "imputed": imputed,
        "hitting": hitting,
        "knn": knn.astype(np.int32),
        "mst_weight": np.array(mst.data.sum()),
    }


def _impute_entry(out: Path, tokens: list[str], domain: np.ndarray, semantic_full: np.ndarray,
                  anchor_mask: np.ndarray, extra_tokens: list[str], extra_vectors: np.ndarray,
                  k: int, rng: np.random.Generator, meta: dict) -> None:
    """Write semantic.vec (anchors plus semantic-only words), domain.vec, and references."""
    anchor_rows = np.flatnonzero(anchor_mask)
    sem_tokens = [tokens[i] for i in anchor_rows] + extra_tokens
    sem_vectors = np.vstack([semantic_full[anchor_rows], extra_vectors])
    order = rng.permutation(len(sem_tokens))
    write_vec(out / "semantic.vec", [sem_tokens[i] for i in order], sem_vectors[order])
    write_vec(out / "domain.vec", tokens, domain)

    ref = reference_lsi(domain, anchor_rows, semantic_full[anchor_rows], k)
    hidden = ref["unknown_rows"]
    truth = semantic_full[hidden]
    mean = semantic_full[anchor_rows].mean(axis=0)
    baseline_cos = float(np.mean(truth @ mean / (np.linalg.norm(truth, axis=1) * np.linalg.norm(mean))))
    np.savez(out / "ref.npz", truth=truth, baseline_cos=baseline_cos, **ref)
    (out / "hidden.txt").write_text("\n".join(tokens[i] for i in hidden) + "\n", encoding="utf-8")
    meta.update(n_domain=len(tokens), n_anchors=int(len(anchor_rows)), n_hidden=int(len(hidden)),
                n_semantic=len(sem_tokens), k=k)


def gen_impute_paper_ratio(seed: int, out: Path, c: dict) -> dict:
    """Shared latent points; linear domain map, nonlinear semantic map, real noise."""
    rng, shape = _rng("impute-paper-ratio", seed), _shape_rng("impute-paper-ratio")
    n, extra, latent, dim = c["n"], c["extra"], c["latent"], c["dim"]
    to_domain = shape.standard_normal((latent, dim)) / np.sqrt(latent)
    to_hidden = shape.standard_normal((latent, 64)) * (1.5 / np.sqrt(latent))
    to_semantic = shape.standard_normal((64, dim)) / 8.0
    z = rng.standard_normal((n + extra, latent))
    domain = z[:n] @ to_domain + c["noise"] * rng.standard_normal((n, dim))
    semantic = np.tanh(z @ to_hidden) @ to_semantic
    semantic += 0.05 * rng.standard_normal(semantic.shape)

    anchor_mask = np.zeros(n, dtype=bool)
    anchor_mask[rng.choice(n, size=round(PAPER_ANCHOR_SHARE * n), replace=False)] = True
    tokens = [f"d{i:05d}" for i in range(n)]
    extra_tokens = [f"s{i:05d}" for i in range(extra)]
    meta = {"eta": c["eta"]}
    _impute_entry(out, tokens, domain, semantic[:n], anchor_mask, extra_tokens, semantic[n:],
                  c["k"], rng, meta)
    return meta


def gen_impute_rare_anchors(seed: int, out: Path, c: dict) -> dict:
    """Points along one smooth open curve with an anchor every 50 points, so mixing is slow.

    The curve, the points and the anchors come from the seed-independent
    stream: they fix the weights' contraction rate, which sets the iteration
    count. So do the phases of the harmonics that make the semantic side a
    smooth function of the curve parameter: drawn per seed, they moved the
    iteration count by 12 % (quartile spread) between seeds. The seed draws
    how the harmonics mix into the semantic dimensions, the noise and the
    semantic-only words.
    """
    rng, shape = _rng("impute-rare-anchors", seed), _shape_rng("impute-rare-anchors")
    n, dim, cd = c["n"], c["dim"], c["curve_dim"]
    freqs = shape.uniform(0.3, 1.5, size=cd // 2)
    phases = shape.uniform(0, 2 * np.pi, size=cd // 2)
    t = (np.arange(n) + 0.5) / n
    arg = 2 * np.pi * t[:, None] * freqs[None, :] + phases[None, :]
    domain = np.hstack([np.cos(arg), np.sin(arg)]) / np.sqrt(cd // 2)
    domain += c["tube"] / n * shape.standard_normal(domain.shape)
    n_anchors = max(2, round(c["anchor_share"] * n))
    anchor_mask = np.zeros(n, dtype=bool)
    anchor_mask[((np.arange(n_anchors) + 0.5) * n / n_anchors).astype(int)] = True

    harmonics = np.arange(1, 7)
    basis = np.sin(2 * np.pi * t[:, None] * harmonics[None, :] + shape.uniform(0, 2 * np.pi, 6))
    semantic = (basis / harmonics) @ rng.standard_normal((6, dim)) / np.sqrt(6)
    semantic += 0.01 * rng.standard_normal(semantic.shape)

    extra_tokens = [f"s{i:05d}" for i in range(c["extra"])]
    extra_vectors = rng.standard_normal((c["extra"], dim)) * semantic.std()
    tokens = [f"c{i:05d}" for i in range(n)]
    meta = {"eta": c["eta"]}
    _impute_entry(out, tokens, domain, semantic, anchor_mask, extra_tokens, extra_vectors,
                  c["k"], rng, meta)
    return meta


# ---------------------------------------------------------------------------
# graphs

def planted_hierarchy(rng: np.random.Generator, n: int, block: int, mean_degree: float,
                      cross_share: float, hubs: int = 0, hub_degree: int = 0
                      ) -> tuple[set[tuple[int, int]], np.ndarray, np.ndarray]:
    """Blocks of trees (a broader/narrower hierarchy), extra in-block links,
    cross links between neighbouring blocks, and a few hubs linked everywhere.

    Returns undirected edges (i < j), the block of each node, and the hubs.
    """
    blocks = np.arange(n) // block
    n_blocks = int(blocks.max()) + 1
    edges: set[tuple[int, int]] = set()

    def add(i: int, j: int) -> None:
        if i != j:
            edges.add((min(i, j), max(i, j)))

    for b in range(n_blocks):
        members = np.flatnonzero(blocks == b)
        for pos in range(1, len(members)):
            add(int(members[pos]), int(members[rng.integers(pos)]))
        if b:
            add(int(members[0]), int(np.flatnonzero(blocks == b - 1)[0]))
    hub_nodes = rng.choice(n, size=hubs, replace=False)
    for h in hub_nodes:
        for j in rng.choice(n, size=hub_degree, replace=False):
            add(int(h), int(j))
    target = round(mean_degree * n / 2)
    while len(edges) < target:
        i = int(rng.integers(n))
        if rng.random() < cross_share:
            nb = (blocks[i] + rng.choice([-1, 1])) % n_blocks
            j = int(rng.choice(np.flatnonzero(blocks == nb)))
        else:
            j = int(rng.choice(np.flatnonzero(blocks == blocks[i])))
        add(i, j)
    return edges, blocks, hub_nodes


def gen_node2vec_hubs(seed: int, out: Path, c: dict) -> dict:
    rng = _rng("node2vec-hubs", seed)
    n = c["n"]
    edges, blocks, hubs = planted_hierarchy(rng, n, c["block"], c["mean_degree"],
                                            c["cross_share"], c["hubs"], c["hub_degree"])
    ids = [f"N{i:06d}" for i in range(n)]
    with open(out / "nodes.tsv", "w", encoding="utf-8") as fh:
        for i in rng.permutation(n):
            fh.write(f"{ids[i]}\tConcept {i:05d}\n")
    edge_list = sorted(edges)
    with open(out / "edges.tsv", "w", encoding="utf-8") as fh:
        for e in rng.permutation(len(edge_list)):
            i, j = edge_list[e]
            fh.write(f"{ids[i]}\t{ids[j]}\n" if rng.random() < 0.5 else f"{ids[j]}\t{ids[i]}\n")
    deg = np.bincount(np.array(edge_list).ravel(), minlength=n)
    np.savez(out / "ref.npz", edges=np.array(edge_list, dtype=np.int32), blocks=blocks,
             hubs=hubs, degrees=deg)
    return {"n_nodes": n, "n_edges": len(edge_list), "sum_deg_sq": int((deg ** 2).sum()),
            "max_degree": int(deg.max()), "n_blocks": int(blocks.max()) + 1}


# ---------------------------------------------------------------------------
# RDF dump, corpus and word pairs for the CLI pipeline

NS = "http://bench.example/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
DESCRIPTOR_TYPE = NS + "vocab#TopicalDescriptor"


def gen_pipeline_dump(seed: int, out: Path, c: dict) -> dict:
    """A MeSH-like dump whose kept descriptors are a small share of its lines,
    a corpus whose sentences co-mention descriptors of one block, and scored
    word pairs graded by block distance."""
    rng = _rng("pipeline-dump", seed)
    n, block = c["descriptors"], c["block"]
    edges, blocks, _ = planted_hierarchy(rng, n, block, 3.0, 0.1)
    n_blocks = int(blocks.max()) + 1
    words = [f"tm{i:04d}" for i in range(n)]
    labels = [f"Tm{i:04d}" for i in range(n)]  # normalized label == corpus word
    ids = [f"<{NS}mesh/D{i:06d}>" for i in range(n)]

    lines = []
    for i in range(n):
        lines.append(f"{ids[i]} <{RDF_TYPE}> <{DESCRIPTOR_TYPE}> .")
        lines.append(f'{ids[i]} <{RDFS_LABEL}> "{labels[i]}"@en .')
        lines.append(f'{ids[i]} <{NS}vocab#dateCreated> "2001-0{1 + i % 9}-1{i % 10}"'
                     f'^^<http://www.w3.org/2001/XMLSchema#date> .')
    for i, j in sorted(edges):
        a, b = (i, j) if rng.random() < 0.5 else (j, i)
        lines.append(f"{ids[a]} <{NS}vocab#broaderDescriptor> {ids[b]} .")
    n_terms = c["noise_terms"]
    for t in range(n_terms):
        term = f"<{NS}mesh/T{t:07d}>"
        owner = ids[t % n]
        lines.append(f"{term} <{RDF_TYPE}> <{NS}vocab#Term> .")
        lines.append(f'{term} <{RDFS_LABEL}> "entry term {t}"@en .')
        lines.append(f'{term} <{NS}vocab#prefLabel> "Entry Term {t}"@en .')
        lines.append(f'{term} <{NS}vocab#lexicalTag> "NON" .')
        lines.append(f"{owner} <{NS}vocab#preferredTerm> {term} .")
        lines.append(f"{term} <{NS}vocab#thesaurusID> <{NS}thesaurus/{t % 97}> .")
        lines.append(f"{term} <{NS}vocab#related> <{NS}mesh/T{(t * 7 + 3) % n_terms:07d}> .")
        lines.append(f'{term} <{NS}vocab#note> "scope note {t} for entry term, see also {t % 11}." .')
    order = rng.permutation(len(lines))
    with open(out / "dump.nt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[i] for i in order) + "\n")

    # kept subgraph as extract-graph must write it: nodes sorted by IRI
    node_ids = [ids[i][1:-1] for i in range(n)]
    by_id = sorted(range(n), key=lambda i: node_ids[i])
    rank = {i: r for r, i in enumerate(by_id)}
    nodes_tsv = "".join(f"{node_ids[i]}\t{labels[i]}\n" for i in by_id)
    ranked = sorted((min(rank[i], rank[j]), max(rank[i], rank[j])) for i, j in edges)
    edges_tsv = "".join(f"{node_ids[by_id[a]]}\t{node_ids[by_id[b]]}\n" for a, b in ranked)
    (out / "expected_nodes.tsv").write_text(nodes_tsv, encoding="utf-8")
    (out / "expected_edges.tsv").write_text(edges_tsv, encoding="utf-8")

    # corpus: three descriptors of one block (one sometimes from the next
    # block) among frequent filler words that subsampling mostly drops
    fillers = [f"w{i:02d}" for i in range(c["fillers"])]
    filler_p = 1.0 / np.arange(1, len(fillers) + 1)
    filler_p /= filler_p.sum()
    members = [np.flatnonzero(blocks == b) for b in range(n_blocks)]
    sentences = []
    for _ in range(c["sentences"]):
        b = int(rng.integers(n_blocks))
        picked = list(rng.choice(members[b], size=3, replace=False))
        if rng.random() < 0.3:
            picked[0] = rng.choice(members[(b + 1) % n_blocks])
        toks = [words[i] for i in picked] + list(rng.choice(fillers, size=c["filler_words"], p=filler_p))
        rng.shuffle(toks)
        sentences.append(" ".join(toks))
    (out / "corpus.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")

    # word pairs over a subset of descriptors: partners in the same block, the
    # next block and anywhere, scored by ring distance between blocks
    terms = np.sort(rng.choice(n, size=c["dataset_terms"], replace=False))
    in_block = [terms[blocks[terms] == b] for b in range(n_blocks)]
    rows = ["Term1,Term2,Similarity,Relatedness"]
    seen = set()
    for i in terms:
        b = int(blocks[i])
        nxt = in_block[(b + 1) % n_blocks]
        partners = [*rng.choice(in_block[b], size=4), *(rng.choice(nxt, size=2) if len(nxt) else []),
                    *rng.choice(terms, size=4)]
        for j in map(int, partners):
            key = (min(i, j), max(i, j))
            if i == j or key in seen:
                continue
            seen.add(key)
            ring = abs(int(blocks[i]) - int(blocks[j]))
            ring = min(ring, n_blocks - ring)
            score = float(np.clip(1400 - 500 * min(ring, 2) + rng.uniform(-150, 150), 0, 1600))
            rows.append(f"{labels[i]},{labels[j]},{score:.2f},{min(score + 40, 1600):.2f}")
    (out / "pairs.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    config = {
        "extraction": {"node_types": [DESCRIPTOR_TYPE]},
        "walks": {"p": 0.5, "q": 0.5, "n_walks": 2, "walk_length": 8, "seed": 2},
        "sgns_graph": {"dim": 100, "window": 3, "epochs": 2, "negative": 4, "alpha": 0.2,
                       "sample": 0.0, "min_count": 1, "seed": 4},
        "sgns_text": {"dim": 100, "window": 5, "epochs": 1, "negative": 4, "alpha": 0.2,
                      "sample": 1e-3, "min_count": 5, "seed": 3},
        "lsi": {"k": 8, "eta": 1e-4},
        "evaluate": {"resamples": 2000, "seed": 0, "split_seed": 1},
    }
    (out / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"dump_lines": len(lines), "kept_nodes": n, "kept_edges": len(edges),
            "sentences": c["sentences"], "pairs": len(rows) - 1}


GENERATORS = {
    "impute-paper-ratio": gen_impute_paper_ratio,
    "impute-rare-anchors": gen_impute_rare_anchors,
    "node2vec-hubs": gen_node2vec_hubs,
    "pipeline-dump": gen_pipeline_dump,
}


def build(workload: str, seed: int, force: bool = False, root: Path | None = None,
          sizes: dict | None = None) -> Path:
    """Make the cache entry for (workload, seed) unless a current one exists.

    ``root`` and ``sizes`` let the self-test build tiny entries elsewhere.
    """
    final = (root / workload / f"seed-{seed}") if root else entry_dir(workload, seed)
    meta_path = final / "meta.json"
    if not force and meta_path.is_file():
        if json.loads(meta_path.read_text()).get("format") == FORMAT:
            return final
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = GENERATORS[workload](seed, tmp, sizes or SIZES[workload])
    meta.update(workload=workload, seed=seed, format=FORMAT)
    (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(GENERATORS))
    ap.add_argument("--all", action="store_true", help="every workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seeds", help="inclusive range such as 1-10")
    ap.add_argument("--keep", action="store_true", help="reuse current entries instead of rebuilding")
    ns = ap.parse_args(argv)
    workloads = sorted(GENERATORS) if ns.all else [ns.workload]
    seeds = _seed_range(ns.seeds) if ns.seeds else [ns.seed]
    if None in workloads or None in seeds:
        ap.error("give --workload or --all, and --seed or --seeds")
    for w in workloads:
        for s in seeds:
            print(build(w, s, force=not ns.keep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
