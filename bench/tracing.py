"""Span tracing of the stressgraph modules from outside the program.

``Tracer.install`` replaces selected public functions with timing wrappers at
every place a caller looks them up: the defining module's attribute, every
other module attribute bound to the same function object (so
``from .corpus import load_tokenized`` in ``cli`` is covered), and the class
attribute for the few traced methods (``gcn.AdamState.step`` is shared with
``convnet``). ``uninstall`` puts the originals back.

Spans are kept in memory as ``Span`` tuples and written out once at the end.
Workers of the seed thread pool start with an empty span stack; their root
spans take the open ``cli`` span of the calling thread as parent.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from stressgraph import cli, convnet, corpus, evaluation, gcn, graph, interpret, manifest, prompting

MODULES = {
    "corpus": corpus,
    "graph": graph,
    "gcn": gcn,
    "convnet": convnet,
    "evaluation": evaluation,
    "prompting": prompting,
    "interpret": interpret,
    "manifest": manifest,
    "cli": cli,
}

# Public functions traced per module. Functions called once per word pair or
# per token (graph.ppmi, corpus.tokenize) are left out: wrapping them would
# cost more than the work they do.
FUNCTIONS = {
    "corpus": ["load_corpus", "tokenize_corpus", "stratified_split", "save_tokenized",
               "load_tokenized", "save_split", "load_split"],
    "graph": ["compute_tfidf", "slide_windows", "ppmi_edges", "assemble_adjacency",
              "normalize_adjacency", "build_node_features", "export_graph_json",
              "save_graph_json", "load_graph_json", "read_embeddings"],
    "gcn": ["train", "loss_and_gradients", "fused_probabilities", "evaluate",
            "save_checkpoint", "save_parameter_blocks", "write_history_csv"],
    "convnet": ["train_conv", "batch_loss_and_gradients", "conv_forward",
                "load_token_embeddings"],
    "evaluation": ["confusion", "metrics", "aggregate", "render_aggregate", "render_metrics"],
    "prompting": ["compose_shots", "build_few_shot", "run_batch", "load_transcript_store",
                  "append_transcript"],
    "interpret": ["label_word_frequencies", "top_k_words", "build_salience_graph",
                  "salience_to_json", "salience_to_dot"],
    "manifest": ["sha256_file", "write_manifest"],
}

# (module, class, method, span name)
METHODS = [
    ("graph", "SparseMatrix", "__post_init__", "graph.SparseMatrix.validate"),
    ("graph", "SparseMatrix", "to_csr", "graph.SparseMatrix.to_csr"),
    ("gcn", "AdamState", "step", "gcn.AdamState.step"),
]


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _tokens(args, kwargs):
    seqs = args[0] if args else kwargs.get("sequences", ())
    return sum(getattr(seq, "length", 0) for seq in seqs)


def _one_sequence_tokens(args, kwargs):
    return getattr(args[0], "length", 0) if args else 0


# Span name -> (counter name, function of the call arguments).
COUNTERS = {
    "manifest.sha256_file": ("manifest.hashed_bytes", _file_bytes),
    "convnet.batch_loss_and_gradients": ("convnet.train_tokens", _tokens),
    "convnet.conv_forward": ("convnet.forward_tokens", _one_sequence_tokens),
}


class Tracer:
    """Thread-safe span recorder around the traced stressgraph functions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._open_root: int | None = None
        self._patches: list = []
        self.spans: list[Span] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.run = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1] if stack else None
                if parent is None:
                    if threading.current_thread() is threading.main_thread():
                        self._open_root = span_id
                    else:
                        parent = self._open_root
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                run = self.run
                with self._lock:
                    self.spans.append(
                        Span(span_id, name, start, end, parent, run, threading.get_ident())
                    )
                    if counter is not None:
                        self.counters[run][counter[0]] += counter[1](args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        originals = {}
        for mod_name, names in FUNCTIONS.items():
            module = MODULES[mod_name]
            for attr in names:
                fn = getattr(module, attr, None)
                if callable(fn):
                    originals[id(fn)] = (fn, self.wrap(f"{mod_name}.{attr}", fn))
        for attr, fn in vars(cli).items():
            if attr.startswith("cmd_") and callable(fn):
                originals[id(fn)] = (fn, self.wrap("cli." + attr[4:].replace("_", "-"), fn))
        for module in MODULES.values():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod_name, cls_name, method, span_name in METHODS:
            cls = getattr(MODULES[mod_name], cls_name, None)
            fn = cls.__dict__.get(method) if cls is not None else None
            if fn is not None:
                self._patches.append((cls, method, fn))
                setattr(cls, method, self.wrap(span_name, fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        """All spans as JSON lines (times in seconds from the first span)."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = s._asdict()
                record["start"] = s.start - origin
                record["end"] = s.end - origin
                fh.write(json.dumps(record) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def uncovered(spans, start: float, end: float) -> float:
    """Time in [start, end] that no root span covers."""
    roots = [(max(s.start, start), min(s.end, end)) for s in spans if s.parent is None]
    return (end - start) - _union_length(r for r in roots if r[1] > r[0])


# What layer_metrics reports. ``<name>.ms`` is a per-repetition total and
# ``<name>.calls`` a per-repetition count (medians over traced repetitions);
# ``<name>.ms.pNN`` are percentiles of single calls pooled over them.
SUBCOMMANDS = ("ingest", "split", "build-graph", "train-gcn", "train-conv", "prompts", "eval", "export")
REP_TOTALS = [
    "corpus.tokenize_corpus", "corpus.stratified_split", "corpus.load_tokenized",
    "graph.compute_tfidf", "graph.slide_windows", "graph.ppmi_edges", "graph.assemble_adjacency",
    "graph.normalize_adjacency", "graph.save_graph_json", "graph.load_graph_json",
    "graph.SparseMatrix.validate", "graph.SparseMatrix.to_csr", "gcn.train",
    "convnet.load_token_embeddings", "prompting.build_few_shot", "prompting.load_transcript_store",
    "interpret.build_salience_graph", "interpret.label_word_frequencies",
    "evaluation.metrics", "manifest.sha256_file",
]
CALL_COUNTS = ["corpus.load_tokenized", "graph.SparseMatrix.validate", "graph.SparseMatrix.to_csr",
               "evaluation.metrics"]
PERCENTILES = {
    "gcn.loss_and_gradients": (50,), "gcn.fused_probabilities": (50,), "gcn.evaluate": (50,),
    "gcn.AdamState.step": (50,), "convnet.batch_loss_and_gradients": (50, 90),
    "convnet.conv_forward": (50,), "prompting.append_transcript": (50, 90),
    "interpret.top_k_words": (50,),
}
LAYERS = ("corpus", "graph", "gcn", "convnet", "evaluation", "prompting", "interpret", "manifest", "cli")


def _percentile(values, p) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def layer_metrics(tracer: Tracer, reps) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the spans of traced repetitions.

    ``reps`` is a list of (run id, start, end) for each traced repetition.
    """
    per_rep = defaultdict(list)  # metric -> one value per repetition
    pooled = defaultdict(list)  # span name -> single-call durations in ms
    epochs_ms = []
    for run, start, end in reps:
        spans = [s for s in tracer.spans if s.run == run]
        selfs = self_times(spans)
        totals, calls, self_by = defaultdict(float), defaultdict(int), defaultdict(float)
        for s in spans:
            ms = (s.end - s.start) * 1e3
            totals[s.name] += ms
            calls[s.name] += 1
            self_by[s.name] += selfs[s.id] * 1e3
            pooled[s.name].append(ms)
        for name in REP_TOTALS:
            per_rep[name + ".ms"].append(totals[name])
        for name in CALL_COUNTS:
            per_rep[name + ".calls"].append(calls[name])
        for sub in SUBCOMMANDS:
            per_rep[f"cli.{sub}.self_ms"].append(self_by["cli." + sub])
        for layer in LAYERS:
            per_rep[f"{layer}.self_ms"].append(
                sum(v for k, v in self_by.items() if k.split(".")[0] == layer)
            )
        by_id = {s.id: s for s in spans}
        starts = defaultdict(list)
        for s in spans:
            if s.name == "gcn.loss_and_gradients" and s.parent in by_id:
                starts[s.parent].append(s.start)
        for train_id, marks in starts.items():
            marks = sorted(marks) + [by_id[train_id].end]
            epochs_ms.extend((b - a) * 1e3 for a, b in zip(marks, marks[1:]))
        per_rep["gcn.epochs"].append(sum(len(m) for m in starts.values()))
        batches = sorted((s for s in spans if s.name == "prompting.run_batch"), key=lambda s: s.start)
        per_rep["prompting.run_batch.fresh_ms"].append((batches[0].end - batches[0].start) * 1e3 if batches else 0.0)
        per_rep["prompting.run_batch.resume_ms"].append(
            (batches[1].end - batches[1].start) * 1e3 if len(batches) > 1 else 0.0)
        counters = tracer.counters[run]
        per_rep["manifest.hashed_mb"].append(counters["manifest.hashed_bytes"] / 1e6)
        conv_s = (totals["convnet.batch_loss_and_gradients"] + totals["convnet.conv_forward"]) / 1e3
        tokens = counters["convnet.train_tokens"] + counters["convnet.forward_tokens"]
        per_rep["convnet.tokens_per_s"].append(tokens / conv_s if conv_s else 0.0)
        wall = end - start
        self_total = sum(selfs.values())
        gap = uncovered(spans, start, end)
        per_rep["trace.self_total_s"].append(self_total)
        per_rep["trace.uncovered_s"].append(gap)
        per_rep["trace.accounted_share"].append((self_total + gap) / wall)
        per_rep["trace.thread_overlap_s"].append(self_total + gap - wall)
        per_rep["trace.spans"].append(len(spans))

    units = {"calls": "count", "epochs": "count", "spans": "count", "hashed_mb": "MB",
             "tokens_per_s": "tokens/s", "accounted_share": "ratio"}
    out = {}
    for name, values in per_rep.items():
        suffix = name.rsplit(".", 1)[-1]
        unit = units.get(suffix, "s" if name.endswith("_s") else "ms")
        out[name] = (_percentile(values, 50), unit)
    for name, ps in PERCENTILES.items():
        for p in ps:
            out[f"{name}.ms.p{p}"] = (_percentile(pooled[name], p), "ms")
        out[f"{name}.ms.n"] = (len(pooled[name]), "count")
    out["gcn.epoch_ms.p50"] = (_percentile(epochs_ms, 50), "ms")
    out["gcn.epoch_ms.p90"] = (_percentile(epochs_ms, 90), "ms")
    out["gcn.epoch_ms.n"] = (len(epochs_ms), "count")
    return out
