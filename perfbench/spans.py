"""Spans around lsimpute's public functions, for the traced benchmark run.

``Tracer.install`` replaces each listed function with a wrapper in every
lsimpute module that binds it, so calls made inside the library (for
example ``lsi_pipeline`` calling ``knn_mst``, or ``cmd_pipeline`` calling
``cmd_impute``) are recorded too. A span has a name, a start, an end and a
parent; spans stay in memory and are written out when the run ends. Nothing
under ``src/`` is changed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name). Spans nest by call order.
LAYERS = [
    ("lsimpute.imputation", "lsi_pipeline", "imputation.lsi_pipeline"),
    ("lsimpute.imputation", "knn_mst", "imputation.knn_mst"),
    ("lsimpute.imputation", "solve_weights", "imputation.solve_weights"),
    ("lsimpute.imputation", "nnls", "nnls"),
    ("lsimpute.imputation", "impute", "imputation.impute"),
    ("lsimpute.embeddings", "read_embeddings", "embeddings.read"),
    ("lsimpute.embeddings", "write_embeddings", "embeddings.write"),
    ("lsimpute.embeddings", "merge_embeddings", "embeddings.merge"),
    ("lsimpute.graph", "read_graph_tsv", "graph.read_tsv"),
    ("lsimpute.graph", "parse_ntriples_file", "graph.parse"),
    ("lsimpute.graph", "extract_subgraph", "graph.extract"),
    ("lsimpute.walks", "build_transition_tables", "walks.tables"),
    ("lsimpute.walks", "generate_walks", "walks.generate"),
    ("lsimpute.sgns", "train_sgns_full", "sgns.train"),
    ("lsimpute.corpus", "filter_corpus_file", "corpus.filter"),
    ("lsimpute.alignment", "align_baseline", "alignment.align"),
    ("lsimpute.evaluation", "bootstrap_eval", "evaluation.bootstrap"),
    ("lsimpute.cli", "write_manifest", "cli.manifest"),
    ("lsimpute.cli", "cmd_pipeline", "cli.pipeline"),
    ("lsimpute.cli", "cmd_filter_corpus", "cli.filter_corpus"),
    ("lsimpute.cli", "cmd_train_sgns", "cli.train_sgns"),
    ("lsimpute.cli", "cmd_extract_graph", "cli.extract_graph"),
    ("lsimpute.cli", "cmd_node2vec", "cli.node2vec"),
    ("lsimpute.cli", "cmd_impute", "cli.impute"),
    ("lsimpute.cli", "cmd_align_baseline", "cli.align_baseline"),
    ("lsimpute.cli", "cmd_evaluate", "cli.evaluate"),
]

# layers whose rise of the ru_maxrss high-water mark is reported
RSS_LAYERS = {"imputation.knn_mst", "walks.tables", "graph.parse"}
ROOT_SPAN = "round"
SETUP_SPAN = "setup"
NNLS_SAMPLE_EVERY = 37


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)  # summed over rounds
        self.setup_counters: dict[str, float] = defaultdict(float)  # counted once
        self._in_setup = False
        self.rss: dict[str, float] = defaultdict(float)
        self.sgns_losses: list[tuple[float, float]] = []  # first training call of each round
        self._loss_taken = False
        self.nnls_samples: list[tuple] = []
        self.captured: dict[str, tuple] = {}  # last (args, kwargs, result) per span name
        self.rounds = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self.stack.pop()

    def round(self, fn):
        """Run one timed pass under a root span."""
        self.rounds += 1
        self._loss_taken = False
        idx = self.begin(ROOT_SPAN)
        try:
            return fn()
        finally:
            self.end(idx)

    def setup(self, fn):
        """Run the workload's set-up under its own root span; it is counted once, not per round."""
        idx = self.begin(SETUP_SPAN)
        self._in_setup = True
        try:
            return fn()
        finally:
            self._in_setup = False
            self.end(idx)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "sgns.train":
                kwargs["track_loss"] = True  # loss is observed only; updates are unchanged
            before = _maxrss_mb() if name in RSS_LAYERS else 0.0
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if name in RSS_LAYERS:
                tracer.rss[name] = max(tracer.rss[name], _maxrss_mb() - before)
            tracer._count(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.setup_counters if self._in_setup else self.counters
        if name == "nnls":
            c["nnls.calls"] += 1
            if c["nnls.calls"] % NNLS_SAMPLE_EVERY == 1 and len(self.nnls_samples) < 40:
                self.nnls_samples.append((args[0].copy(), args[1].copy(), result.copy()))
        elif name == "imputation.solve_weights":
            c["fallback_rows"] += len(result.fallback_rows)
        elif name == "imputation.impute":
            c["impute.iterations"] += result.iterations
        elif name == "embeddings.read":
            c["embeddings.read.values"] += result.vectors.size
        elif name == "graph.parse":
            c["graph.parse.lines"] += len(result.triples) + result.skipped
        elif name == "walks.tables":
            c["walks.tables.entries"] += sum(d * d for d in args[0].degrees())
        elif name == "walks.generate":
            c["walks.generate.steps"] += sum(len(w) - 1 for w in result)
        elif name == "sgns.train":
            corpus, cfg = args[0], args[1]
            c["sgns.tokens"] += cfg.epochs * sum(len(s) for s in corpus)
            if result.epoch_loss and not self._loss_taken:
                self.sgns_losses.append((result.epoch_loss[0], result.epoch_loss[-1]))
                self._loss_taken = True
        elif name == "corpus.filter":
            c["corpus.filter.sentences"] += result.total
        elif name == "evaluation.bootstrap":
            n_resamples = args[2] if len(args) > 2 else kwargs.get("n_resamples", 1000)
            cells = sum(cell.r is not None for sub in result.scores.values() for cell in sub.values())
            c["evaluation.resamples"] += n_resamples * cells
        if name in ("imputation.knn_mst", "imputation.solve_weights", "imputation.impute"):
            self.captured[name] = (args, kwargs, result)

    def install(self) -> None:
        for module_name, attr, span in LAYERS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if name == "lsimpute" or name.startswith("lsimpute."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, key, value))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._originals):
            setattr(mod, key, value)
        self._originals.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name and round: duration minus direct children's durations.

        Spans under the set-up root happen once and are added undivided.
        """
        child = defaultdict(float)
        root = []
        for idx, (name, start, end, parent) in enumerate(self.spans):
            root.append(idx if parent < 0 else root[parent])
            if parent >= 0:
                child[parent] += end - start
        rounds = max(self.rounds, 1)
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            once = self.spans[root[idx]][0] == SETUP_SPAN
            out[name] += (end - start - child[idx]) / (1 if once else rounds)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-round figures, named as in BENCHMARK.json.

        Every additive figure (self time, count, memory rise) is present, and
        reads 0 for a layer that did not run on the workload. The ratios and
        losses exist only where their layer ran.
        """
        r = max(self.rounds, 1)
        st = self.self_times()
        c = defaultdict(float, {k: v / r for k, v in self.counters.items()})
        for k, v in self.setup_counters.items():
            c[k] += v
        m: dict[str, float] = {f"{span}.s": 0.0 for _, _, span in LAYERS}
        m.update({f"{span}.rss_mb": 0.0 for span in RSS_LAYERS})
        for name, value in st.items():
            if name in (ROOT_SPAN, SETUP_SPAN):
                continue
            m[f"{name}.s"] = value
        # time in no layer span of the CLI: cmd_pipeline's own work and main
        uncovered = m.pop("cli.pipeline.s")
        if "cli.pipeline" in st:
            uncovered += st.get(ROOT_SPAN, 0.0)
        m["cli.uncovered.s"] = uncovered
        m["nnls.calls"] = c["nnls.calls"]
        m["imputation.solve_weights.fallback_rows"] = c["fallback_rows"]
        m["imputation.impute.iterations"] = c["impute.iterations"]
        m["walks.tables.entries"] = c["walks.tables.entries"]
        for name, value in self.rss.items():
            m[f"{name}.rss_mb"] = value
        ratios = [
            ("nnls.us_per_call", "nnls.s", "nnls.calls", 1e6),
            ("imputation.impute.ms_per_iter", "imputation.impute.s", "impute.iterations", 1e3),
            ("embeddings.read.values_per_s", "embeddings.read.values", "embeddings.read.s", 1.0),
            ("graph.parse.lines_per_s", "graph.parse.lines", "graph.parse.s", 1.0),
            ("walks.generate.steps_per_s", "walks.generate.steps", "walks.generate.s", 1.0),
            ("sgns.train.tokens_per_s", "sgns.tokens", "sgns.train.s", 1.0),
            ("corpus.filter.sentences_per_s", "corpus.filter.sentences", "corpus.filter.s", 1.0),
            ("evaluation.bootstrap.resamples_per_s", "evaluation.resamples", "evaluation.bootstrap.s", 1.0),
        ]
        for out, num, den, scale in ratios:
            top = m.get(num, c.get(num, 0.0))
            bottom = m.get(den, c.get(den, 0.0))
            if top > 0 and bottom > 0:
                m[out] = scale * top / bottom
        if self.sgns_losses:
            # the first training call of a round: the text model on pipeline-dump
            m["sgns.loss_first"] = sum(f for f, _ in self.sgns_losses) / len(self.sgns_losses)
            m["sgns.loss_last"] = sum(last for _, last in self.sgns_losses) / len(self.sgns_losses)
        return m

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        # per-call NNLS spans are summarised by their count, not listed
        rows = [{"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
                for i, (n, s, e, p) in enumerate(self.spans) if n != "nnls"]
        payload = {"spans": rows, "nnls_calls": self.counters.get("nnls.calls", 0)}
        path.write_text(json.dumps(payload), encoding="utf-8")
