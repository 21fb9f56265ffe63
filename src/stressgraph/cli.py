"""Command-line pipeline over the graph classifier.

Subcommands: ingest, split, build-graph, train-gcn, train-conv, ablate,
prompts, eval, export. Every command writes a run manifest (resolved config,
seeds, input and output digests) next to its artifacts. Exit codes: 0
success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import convnet, evaluation, gcn, graph, interpret, prompting
from .corpus import (
    DEFAULT_SPLIT_RATIOS,
    SPLIT_NAMES,
    TokenizerRules,
    load_corpus,
    load_split,
    load_tokenized,
    save_split,
    save_tokenized,
    stratified_split,
    tokenize_corpus,
)
from .manifest import RunManifest, atomic_write, sha256_file, write_json, write_manifest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = tuple(round(i / 10, 1) for i in range(11))
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

# Defaults for everything a config file may override; CLI flags win over the
# file, the file wins over this table.
CONFIG_DEFAULTS = {
    "format": "jsonl",
    "lowercase": True,
    "remove_stopwords": True,
    "min_df": 5,
    "window": 20,
    "ratios": list(DEFAULT_SPLIT_RATIOS),
    "split_seed": 0,
    "hidden_dim": 200,
    "dropout": 0.5,
    "lam": 0.2,
    "learning_rate": 1e-3,
    "weight_decay": 0.0,
    "epochs": 200,
    "patience": None,
    "seeds": list(DEFAULT_SEEDS),
    "grid": list(DEFAULT_GRID),
    "kernel_sizes": [3, 4, 5],
    "n_filters": 100,
    "embedding_dim": 768,
    "max_len": 512,
    "conv_epochs": 10,
    "batch_size": 32,
    "k": 0,
    "prompt_seed": 0,
    "target_split": "test",
    "averaging": "weighted",
    "jobs": 1,
}

# Config keys named as the gcn.TrainingConfig fields they fill.
GCN_FIELDS = ("lam", "learning_rate", "epochs", "dropout", "hidden_dim", "weight_decay", "patience")
# Config keys named as the convnet.ConvHeadConfig fields they fill; conv_epochs fills epochs.
CONV_FIELDS = ("kernel_sizes", "n_filters", "embedding_dim", "max_len", "dropout", "batch_size",
               "learning_rate")
# Dests of the input file flags train-gcn and ablate share.
GCN_INPUTS = ("tokenized", "graph", "split", "embeddings")


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _has_default_type(value, default) -> bool:
    """Whether a config file value has the JSON type of its default.

    Integers pass where the default is a float; list items are checked
    against the default's first item; a null default (patience) takes null or
    an integer.
    """
    if default is None:
        return value is None or type(value) is int
    if type(default) is float:
        return type(value) in (int, float)
    if type(default) is list:
        return type(value) is list and all(_has_default_type(v, default[0]) for v in value)
    return type(value) is type(default)


def resolve_config(args, keys) -> dict:
    """Layer defaults, then the config file, then explicit CLI flags."""
    resolved = {key: CONFIG_DEFAULTS[key] for key in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_config = json.load(fh)
        if type(file_config) is not dict:
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_config) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config file keys: {sorted(unknown)}")
        mistyped = sorted(
            key for key, value in file_config.items()
            if not _has_default_type(value, CONFIG_DEFAULTS[key])
        )
        if mistyped:
            raise ValueError(f"config file values of the wrong type: {mistyped}")
        for key in keys:
            if key in file_config:
                resolved[key] = file_config[key]
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _rules(config: dict) -> TokenizerRules:
    from .corpus import DEFAULT_STOPWORDS

    stopwords = DEFAULT_STOPWORDS if config["remove_stopwords"] else frozenset()
    return TokenizerRules(lowercase=config["lowercase"], stopwords=stopwords)


def cmd_ingest(args, config: dict, man: RunManifest) -> None:
    docs = load_corpus(args.corpus, config["format"])
    corpus = tokenize_corpus(docs, _rules(config), config["min_df"])
    save_tokenized(man.output("tokenized.json"), corpus)
    with atomic_write(man.output("vocab.csv")) as fh:
        fh.write("token,doc_freq\n")
        for token, df in zip(corpus.vocab.tokens, corpus.vocab.doc_freq):
            fh.write(f"{token},{df}\n")
    print(
        f"ingested {corpus.n_docs} documents, vocabulary {len(corpus.vocab)} tokens, "
        f"{len(corpus.empty_doc_ids)} empty after filtering"
    )


def cmd_split(args, config: dict, man: RunManifest) -> None:
    corpus = load_tokenized(args.tokenized)
    if any(lab is None for lab in corpus.labels):
        raise ValueError("stratified split requires a fully labeled corpus")
    split = stratified_split(
        corpus.doc_ids, corpus.labels, tuple(config["ratios"]), config["split_seed"]
    )
    save_split(man.output("split.jsonl"), split)
    counts = {name: len(split.ids_in(name)) for name in SPLIT_NAMES}
    print("split sizes: " + ", ".join(f"{k}={v}" for k, v in counts.items()))


def cmd_build_graph(args, config: dict, man: RunManifest) -> None:
    corpus = load_tokenized(args.tokenized)
    tfidf = graph.compute_tfidf(corpus)
    stats = graph.slide_windows(corpus, config["window"])
    data = graph.export_graph_json(corpus, tfidf, graph.ppmi_edges(stats))
    graph.save_graph_json(man.output("graph.json"), data)
    print(
        f"graph: {data['n_docs']} doc nodes, {data['n_words']} word nodes, "
        f"{len(data['edges'])} weighted edges (self-loops implicit)"
    )


def _load_split_for(doc_ids, path):
    split = load_split(path)
    missing = set(doc_ids) - set(split.assignment)
    extra = set(split.assignment) - set(doc_ids)
    if missing or extra:
        raise ValueError(
            f"split does not align with the corpus ({len(missing)} unassigned, "
            f"{len(extra)} unknown ids)"
        )
    return split


def _require_train_and_test(masks) -> None:
    """Refuse a split that leaves nothing to train on or to score, before any seed trains."""
    for name in ("train", "test"):
        if not any(masks[name]):
            raise ValueError(f"the split has no {name} documents")


def _training_inputs(args):
    """Shared artifact loading for train-gcn and ablate."""
    if bool(args.embeddings) == args.identity:
        raise ValueError("pass exactly one of --embeddings FILE and --identity")
    corpus = load_tokenized(args.tokenized)
    tfidf, ppmi = graph.read_graph_json(args.graph, corpus)
    adjacency = graph.assemble_adjacency(tfidf, ppmi, corpus.n_docs, len(corpus.vocab))
    adj_norm = graph.normalize_adjacency(adjacency)
    split = _load_split_for(corpus.doc_ids, args.split)
    masks = {
        name: np.asarray(split.mask(corpus.doc_ids, name), dtype=bool)
        for name in SPLIT_NAMES
    }
    _require_train_and_test(masks)
    embeddings = None
    if args.embeddings:
        csv_file = str(args.embeddings).endswith(".csv")
        embeddings = (graph.read_embeddings_csv if csv_file else graph.read_embeddings)(args.embeddings)
    for name in SPLIT_NAMES:
        rows = np.flatnonzero(masks[name])
        unlabeled = [corpus.doc_ids[i] for i in rows if corpus.labels[i] is None]
        if unlabeled:
            raise ValueError(f"{len(unlabeled)} {name} documents are unlabeled")
    features = graph.build_node_features(embeddings, corpus.n_docs, len(corpus.vocab))
    return corpus, adj_norm, features, masks


def _run_seeds(man: RunManifest, seeds, jobs: int, run_one, prefix: str):
    """Train every seed on one pool, then write the per-seed files and the aggregate.

    run_one(seed) returns (parameter blocks, history, test report, extra
    metrics fields), written as <prefix>checkpoint-seed<N>.bin,
    <prefix>history-seed<N>.csv and <prefix>metrics-seed<N>.json in seed order
    once the pool is done, so the bytes do not depend on jobs. Returns the
    aggregate written to <prefix>aggregate.json.
    """
    if not seeds:
        raise ValueError("seeds must hold at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must not repeat, got {seeds}")
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(pool.map(run_one, seeds))
    for seed, (blocks, history, report, extra) in zip(seeds, outcomes):
        gcn.save_parameter_blocks(man.output(f"{prefix}checkpoint-seed{seed}.bin"), blocks)
        gcn.write_history_csv(man.output(f"{prefix}history-seed{seed}.csv"), history)
        payload = {**evaluation.report_as_dict(report), "seed": seed, **extra}
        write_json(man.output(f"{prefix}metrics-seed{seed}.json"), payload, indent=2)
    agg = evaluation.aggregate(report for _, _, report, _ in outcomes)
    write_json(man.output(f"{prefix}aggregate.json"), {
        "n_runs": agg.n_runs,
        "metrics": {name: {"mean": mean, "std": std} for name, (mean, std) in agg.stats.items()},
    }, indent=2)
    return agg


def cmd_train_gcn(args, config: dict, man: RunManifest) -> None:
    base = gcn.TrainingConfig(**{key: config[key] for key in GCN_FIELDS})
    corpus, adj_norm, features, masks = _training_inputs(args)

    def run_one(seed: int):
        result = gcn.train(features, adj_norm, corpus.labels, masks, replace(base, seed=seed))
        report = gcn.evaluate(
            features, adj_norm, result.gcn, result.head, base.lam, corpus.labels, masks["test"]
        )
        blocks = gcn.param_blocks(result.gcn, result.head)
        return blocks, result.history, report, {"best_epoch": result.best_epoch}

    agg = _run_seeds(man, config["seeds"], config["jobs"], run_one, "")
    print(evaluation.render_aggregate({"test": agg}), end="")


def cmd_train_conv(args, config: dict, man: RunManifest) -> None:
    corpus = load_tokenized(args.tokenized)
    split = _load_split_for(corpus.doc_ids, args.split)

    base = convnet.ConvHeadConfig(
        **{key: config[key] for key in CONV_FIELDS}, epochs=config["conv_epochs"]
    )
    sequences = convnet.load_token_embeddings(args.sequences, base, known_ids=corpus.doc_ids)
    by_id = {seq.doc_id: seq for seq in sequences}
    missing = set(split.ids_in("train")) - set(by_id)
    if missing:
        raise ValueError(f"{len(missing)} train documents lack token sequences")
    rows = [i for i, doc_id in enumerate(corpus.doc_ids) if doc_id in by_id]
    aligned = [by_id[corpus.doc_ids[i]] for i in rows]
    labels = []
    for i in rows:
        if corpus.labels[i] is None:
            raise ValueError(f"document {corpus.doc_ids[i]!r} is unlabeled")
        labels.append(int(corpus.labels[i]))
    masks = {
        name: [split.assignment.get(corpus.doc_ids[i]) == name for i in rows]
        for name in SPLIT_NAMES
    }
    _require_train_and_test(masks)

    def run_one(seed: int):
        result = convnet.train_conv(aligned, labels, masks, replace(base, seed=seed))
        test_rows = [i for i, flag in enumerate(masks["test"]) if flag]
        test_seqs = [aligned[i] for i in test_rows]
        preds = [
            convnet.classify(z)
            for z in convnet.conv_logits(test_seqs, result.params, base.batch_size)
        ]
        gold = [labels[i] for i in test_rows]
        report = evaluation.metrics(evaluation.confusion(preds, gold))
        return convnet.param_blocks(result.params), result.history, report, {}

    agg = _run_seeds(man, config["seeds"], config["jobs"], run_one, "conv-")
    print(evaluation.render_aggregate({"test": agg}), end="")


def cmd_ablate(args, config: dict, man: RunManifest) -> None:
    base = gcn.TrainingConfig(**{key: config[key] for key in GCN_FIELDS})
    corpus, adj_norm, features, masks = _training_inputs(args)
    rows = gcn.ablate_lambda(
        config["grid"], base, features, adj_norm, corpus.labels, masks, config["seeds"],
        jobs=config["jobs"],
    )
    gcn.write_ablation_csv(man.output("ablation.csv"), rows)
    table = evaluation.render_table(
        ["lambda", "accuracy", "f1", "acc_std", "f1_std"],
        [[f"{r.lam:g}", f"{r.accuracy:.4f}", f"{r.f1:.4f}",
          f"{r.acc_std:.4f}", f"{r.f1_std:.4f}"] for r in rows],
    )
    with atomic_write(man.output("ablation.txt")) as fh:
        fh.write(table)
    print(table, end="")


def cmd_prompts(args, config: dict, man: RunManifest) -> None:
    k = config["k"]
    docs = load_corpus(args.corpus, config["format"])
    spec = prompting.PromptSpec()

    if args.split:
        split = _load_split_for([d.id for d in docs], args.split)
        target_name = config["target_split"]
        if target_name not in SPLIT_NAMES:
            raise ValueError(f"unknown target split {target_name!r}")
        targets = [d for d in docs if split.assignment.get(d.id) == target_name]
        pool_docs = [d for d in docs if split.assignment.get(d.id) == "train"]
    else:
        if k > 0:
            raise UsageError("few-shot prompts need --split to draw exemplars from")
        targets = docs
        pool_docs = []
    if not targets:
        raise ValueError("no target documents to build prompts for")

    shots = prompting.ShotSet(shots=())
    if k > 0:
        pool = [prompting.Shot(d.id, d.text, d.label) for d in pool_docs]
        shots = prompting.compose_shots(
            pool, k, config["prompt_seed"], exclude_ids=[d.id for d in targets]
        )

    with atomic_write(man.output("prompts.jsonl")) as fh:
        for doc in targets:
            prompt = prompting.build_few_shot(shots, doc.text, spec)
            sha = prompting.prompt_sha256(prompt)
            record = {"id": doc.id, "prompt": prompt, "prompt_sha256": sha}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    write_json(man.output("shots.json"), {
        "k": k,
        "seed": config["prompt_seed"],
        "shots": [{"id": s.doc_id, "label": s.label} for s in shots.shots],
    }, indent=2)
    print(f"wrote {len(targets)} prompts ({k}-shot)")


def _eval_counts(path) -> evaluation.ConfusionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    names = ("tn", "fp", "fn", "tp")
    if type(payload) is not dict:
        raise ValueError("counts file must hold a JSON object with tn/fp/fn/tp")
    for name in names:
        if type(payload.get(name)) is not int:
            raise ValueError(f"counts file {name} must be an integer, not {payload.get(name)!r}")
    return evaluation.ConfusionMatrix(**{name: payload[name] for name in names})


def _eval_predictions(args) -> tuple:
    corpus = load_tokenized(args.tokenized)
    known, preds_by_id = set(corpus.doc_ids), {}
    with open(args.pred, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "pred"]:
            raise ValueError(f"expected prediction header id,pred, got {header}")
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"line {reader.line_num}: malformed prediction row: {row}")
            if row[0] in preds_by_id:
                raise ValueError(f"line {reader.line_num}: repeated prediction id {row[0]!r}")
            if row[0] not in known:
                raise ValueError(f"line {reader.line_num}: prediction id {row[0]!r} is not in the corpus")
            try:
                pred = int(row[1])
            except ValueError:
                pred = None
            if pred not in (0, 1):
                raise ValueError(f"line {reader.line_num}: prediction {row[1]!r} is not 0 or 1")
            preds_by_id[row[0]] = pred
    if args.split:
        split = _load_split_for(corpus.doc_ids, args.split)
        eval_ids = [
            d for d in corpus.doc_ids
            if split.assignment.get(d) == args.eval_split
        ]
    else:
        eval_ids = [d for d in corpus.doc_ids if d in preds_by_id]
    missing = [d for d in eval_ids if d not in preds_by_id]
    if missing:
        raise ValueError(f"{len(missing)} evaluated documents lack predictions")
    preds, gold = [], []
    for doc_id in eval_ids:
        row = corpus.row_of(doc_id)
        if corpus.labels[row] is None:
            raise ValueError(f"document {doc_id!r} is unlabeled")
        preds.append(preds_by_id[doc_id])
        gold.append(corpus.labels[row])
    return evaluation.confusion(preds, gold), {"n_eval": len(eval_ids)}


def _eval_transcripts(args) -> tuple:
    corpus = load_tokenized(args.tokenized)
    store = prompting.load_transcript_store(args.transcripts)
    gold, transcripts, seen = [], [], set()
    with open(args.prompts, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if type(record) is not dict or not all(
                type(record.get(key)) is str for key in ("id", "prompt_sha256")
            ):
                raise ValueError(f"prompts file line {line_no}: expected an object with "
                                 "string id and prompt_sha256")
            if record["id"] in seen:
                raise ValueError(f"prompts file line {line_no}: repeated prompt id {record['id']!r}")
            seen.add(record["id"])
            label = corpus.labels[corpus.row_of(record["id"])]
            if label is None:
                raise ValueError(f"document {record['id']!r} is unlabeled")
            gold.append(label)
            transcripts.append(store.get(record["prompt_sha256"]))
    scored, failures = prompting.transcript_predictions(transcripts, args.failures_as_negative)
    if not scored:
        raise ValueError("no evaluable transcripts (all missing or unparsed)")
    preds = [label for _, label in scored]
    meta = {"n_prompts": len(transcripts), "parse_failures": failures}
    return evaluation.confusion(preds, [gold[idx] for idx, _ in scored]), meta


def cmd_eval(args, config: dict, man: RunManifest) -> None:
    modes = [bool(args.counts), bool(args.pred), bool(args.transcripts)]
    if sum(modes) != 1:
        raise UsageError("exactly one of --counts, --pred, --transcripts is required")
    if not (args.counts or args.tokenized):
        raise UsageError("--pred and --transcripts need --tokenized for the gold labels")
    if args.transcripts and not args.prompts:
        raise UsageError("--transcripts needs --prompts")
    meta = {}
    if args.counts:
        cm = _eval_counts(args.counts)
    elif args.pred:
        cm, meta = _eval_predictions(args)
    else:
        cm, meta = _eval_transcripts(args)

    report = evaluation.metrics(cm, config["averaging"])
    payload = evaluation.report_as_dict(report)
    payload["confusion"] = {"tn": cm.tn, "fp": cm.fp, "fn": cm.fn, "tp": cm.tp}
    payload.update(meta)
    write_json(man.output("report.json"), payload, indent=2)
    table = evaluation.render_metrics(report, name=config["averaging"])
    with atomic_write(man.output("report.txt")) as fh:
        fh.write(table)
    print(table, end="")


def cmd_export(args, config: dict, man: RunManifest) -> None:
    if args.docs is None and args.label is None:
        raise UsageError("nothing to export: pass --docs and/or --label")
    if args.docs is not None and not args.graph:
        raise UsageError("--docs needs --graph, the graph.json that build-graph wrote")
    corpus = load_tokenized(args.tokenized)

    if args.label is not None:
        table = interpret.label_word_frequencies(corpus, args.label)
        write_json(man.output(f"frequencies-label{args.label}.json"),
                   interpret.frequency_to_json(table), indent=2)
        print(f"label {args.label}: {len(table.entries)} ranked tokens")

    if args.docs is not None:
        tfidf, ppmi = graph.read_graph_json(args.graph, corpus)
        if args.docs.isdigit():
            doc_ids = corpus.doc_ids[: int(args.docs)]
        else:
            doc_ids = [part for part in args.docs.split(",") if part]
        salience = interpret.build_salience_graph(corpus, doc_ids, tfidf, ppmi, args.top_k)
        write_json(man.output("salience.json"), interpret.salience_to_json(salience))
        with atomic_write(man.output("salience.dot")) as fh:
            fh.write(interpret.salience_to_dot(salience))
        print(
            f"salience graph: {len(salience.doc_nodes)} docs, "
            f"{len(salience.word_nodes)} words, {len(salience.w)} edges"
        )


def build_parser() -> argparse.ArgumentParser:
    """Every subparser sets func, its cmd_* handler looked up when this runs,
    keys, the CONFIG_DEFAULTS keys resolve_config fills for it, and inputs, the
    dests of its flags that name input files."""
    parser = _Parser(
        prog="stressgraph",
        description="Document-word graph classifier pipeline",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, keys, inputs, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output artifact directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.set_defaults(func=func, keys=keys, inputs=inputs)
        return p

    def gcn_flags(p):
        p.add_argument("--tokenized", required=True)
        p.add_argument("--graph", required=True)
        p.add_argument("--split", required=True)
        p.add_argument("--embeddings", help="document embedding file (binary or .csv)")
        p.add_argument(
            "--identity", action="store_true",
            help="identity node features, graph branch only (requires lambda 1)",
        )
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--dropout", type=float)
        p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
        p.add_argument("--weight-decay", dest="weight_decay", type=float)
        p.add_argument("--patience", type=int)
        p.add_argument("--seeds", type=_int_list)
        p.add_argument("--jobs", type=int)

    p = command("ingest", cmd_ingest, ("format", "lowercase", "remove_stopwords", "min_df"),
                ("corpus",), help="tokenize a corpus and build its vocabulary")
    p.add_argument("--corpus", required=True, help="JSONL or CSV document file")
    p.add_argument("--format", choices=["jsonl", "csv"])
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--lowercase", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument(
        "--keep-stopwords", dest="remove_stopwords", action="store_const", const=False,
        default=None, help="disable stopword removal",
    )

    p = command("split", cmd_split, ("ratios", "split_seed"), ("tokenized",),
                help="stratified train/val/test assignment")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--ratios", type=_float_list)
    p.add_argument("--seed", dest="split_seed", type=int)

    p = command("build-graph", cmd_build_graph, ("window",), ("tokenized",),
                help="TF-IDF + PPMI heterogeneous graph")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--window", type=int)

    p = command("train-gcn", cmd_train_gcn, GCN_FIELDS + ("seeds", "jobs"), GCN_INPUTS,
                help="train the fused graph + head classifier")
    gcn_flags(p)
    p.add_argument("--lambda", dest="lam", type=float)

    p = command("train-conv", cmd_train_conv, CONV_FIELDS + ("conv_epochs", "seeds", "jobs"),
                ("tokenized", "split", "sequences"), help="train the convolutional sequence head")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--sequences", required=True, help="token-embedding sequence file")
    p.add_argument("--kernel-sizes", dest="kernel_sizes", type=_int_list)
    p.add_argument("--filters", dest="n_filters", type=int)
    p.add_argument("--embedding-dim", dest="embedding_dim", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", dest="conv_epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--seeds", type=_int_list)
    p.add_argument("--jobs", type=int)

    p = command("ablate", cmd_ablate, ("grid",) + GCN_FIELDS + ("seeds", "jobs"), GCN_INPUTS,
                help="accuracy/F1 across an interpolation grid")
    gcn_flags(p)
    p.add_argument("--grid", type=_float_list, help="comma-separated interpolation values")

    p = command("prompts", cmd_prompts, ("format", "k", "prompt_seed", "target_split"),
                ("corpus", "split"), help="build zero- or few-shot classification prompts")
    p.add_argument("--corpus", required=True, help="raw document file (text is needed)")
    p.add_argument("--format", choices=["jsonl", "csv"])
    p.add_argument("--split", help="split assignment file; exemplars come from train")
    p.add_argument("--k", type=int, choices=[0, 3, 10])
    p.add_argument("--seed", dest="prompt_seed", type=int)
    p.add_argument("--target-split", dest="target_split", choices=list(SPLIT_NAMES))

    p = command("eval", cmd_eval, ("averaging",),
                ("counts", "pred", "transcripts", "prompts", "tokenized", "split"),
                help="score predictions, counts, or transcripts")
    p.add_argument("--counts", help="JSON file with tn/fp/fn/tp")
    p.add_argument("--pred", help="CSV id,pred prediction file")
    p.add_argument("--transcripts", help="completion transcript JSONL store")
    p.add_argument("--prompts", help="prompts.jsonl mapping ids to prompt hashes")
    p.add_argument("--tokenized", help="tokenized corpus (gold labels)")
    p.add_argument("--split")
    p.add_argument("--eval-split", dest="eval_split", default="test", choices=list(SPLIT_NAMES))
    p.add_argument(
        "--failures-as-negative", dest="failures_as_negative", action="store_true",
        help="count parse failures as negative predictions instead of dropping them",
    )
    p.add_argument("--averaging", choices=list(evaluation.AVERAGING_MODES))

    p = command("export", cmd_export, (), ("tokenized", "graph"),
                help="interpretability exports (frequencies, salience)")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--graph", help="graph.json from build-graph (required with --docs)")
    p.add_argument("--label", type=int, choices=[0, 1], help="word-frequency export label")
    p.add_argument("--docs", help="document count (first N) or comma-separated ids")
    p.add_argument("--k", dest="top_k", type=int, default=5, help="salient words per document")

    return parser


def main(argv=None) -> int:
    """Run one subcommand and write its manifest.json into --out; returns the exit code.

    The files named by the command's input flags are hashed before the handler
    runs. The handler gets the resolved config and the manifest, and writes
    every artifact to a path from man.output; those are hashed once it
    returns. The manifest is written only when the handler returns.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        config = resolve_config(args, args.keys)
        man = RunManifest(
            command=args.command,
            config=config,
            seeds=config.get(
                "seeds", [config[key] for key in ("split_seed", "prompt_seed") if key in config]
            ),
            thread_count=config.get("jobs", 1),
            out_dir=args.out,
        )
        started = time.perf_counter()
        named = [getattr(args, dest) for dest in args.inputs]
        man.inputs = {path: sha256_file(path) for path in named if path}
        args.func(args, config, man)
        man.outputs = {path: sha256_file(path) for path in man.outputs}
        man.wall_clock_seconds = time.perf_counter() - started
        write_manifest(os.path.join(args.out, "manifest.json"), man)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (gcn.DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
