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
from dataclasses import fields, replace

from . import convnet, evaluation, gcn, graph, interpret, prompting
from .corpus import (
    DEFAULT_SPLIT_RATIOS,
    SPLIT_NAMES,
    TokenizerRules,
    gold_labels,
    load_corpus,
    load_split,
    load_tokenized,
    save_split,
    save_tokenized,
    split_masks,
    stratified_split,
    tokenize_corpus,
)
from .manifest import RunManifest, atomic_write, read_json, sha256_file, write_json, write_manifest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_GRID = tuple(round(i / 10, 1) for i in range(11))
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

# Defaults for everything a config file may override; CLI flags win over the
# file, the file wins over this table.
CONFIG_DEFAULTS = {
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
    "max_len": 512,
    "conv_epochs": 10,
    "batch_size": 32,
    "k": 0,
    "prompt_seed": 0,
    "target_split": "test",
    "averaging": "weighted",
    "jobs": 1,
}

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


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


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


def resolve_config(args) -> dict:
    """Layer defaults, then the config file, then explicit CLI flags; check jobs, seeds, grid.

    The command's keys are the dests of its flags that are CONFIG_DEFAULTS keys.
    """
    file_config = {}
    if args.config:
        file_config = read_json(args.config)
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
    resolved = {}
    for key, default in CONFIG_DEFAULTS.items():
        if key in vars(args):
            flag = getattr(args, key)
            resolved[key] = flag if flag is not None else file_config.get(key, default)
    # Checked before any input is hashed or read; a command without a grid or seeds has [0].
    grid, seeds = sorted(resolved.get("grid", [0])), resolved.get("seeds", [0])
    if resolved.get("jobs", 1) < 1:
        raise ValueError("jobs must be at least 1")
    if any(not 0.0 <= lam <= 1.0 for lam in grid):
        raise ValueError("every grid value must lie in [0, 1]")
    if not grid:
        raise ValueError("the grid must hold at least one value")
    if len(set(grid)) != len(grid):
        raise ValueError(f"grid values must not repeat, got {grid}")
    if not seeds:
        raise ValueError("seeds must hold at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must not repeat, got {seeds}")
    if min(seeds) < 0:
        raise ValueError(f"seeds must not be negative, got {seeds}")
    for key in ("split_seed", "prompt_seed"):
        if resolved.get(key, 0) < 0:
            raise ValueError(f"{key} must not be negative, got {resolved[key]}")
    return resolved


def _from_config(cls, config: dict, **extra):
    """Dataclass cls with each of its fields the command's config holds, then extra."""
    return cls(**{f.name: config[f.name] for f in fields(cls) if f.name in config}, **extra)


def _rules(config: dict) -> TokenizerRules:
    from .corpus import DEFAULT_STOPWORDS

    stopwords = DEFAULT_STOPWORDS if config["remove_stopwords"] else frozenset()
    return TokenizerRules(lowercase=config["lowercase"], stopwords=stopwords)


def cmd_ingest(args, config: dict, man: RunManifest) -> None:
    docs = load_corpus(args.corpus)
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


def _gcn_cell(args, config: dict):
    """Load the train-gcn/ablate inputs; returns run_cell((lam, seed)) -> (result, test report)."""
    base = _from_config(gcn.TrainingConfig, config)
    if bool(args.embeddings) == args.identity:
        raise ValueError("pass exactly one of --embeddings FILE and --identity")
    corpus = load_tokenized(args.tokenized)
    tfidf, ppmi = graph.read_graph_json(args.graph, corpus)
    adjacency = graph.assemble_adjacency(tfidf, ppmi, corpus.n_docs, len(corpus.vocab))
    adj_norm = graph.normalize_adjacency(adjacency)
    masks = split_masks(load_split(args.split).aligned(corpus.doc_ids), corpus.doc_ids)
    embeddings = graph.read_embeddings(args.embeddings) if args.embeddings else None
    labels = gold_labels(corpus, corpus.doc_ids)
    features = graph.build_node_features(embeddings, corpus.n_docs, len(corpus.vocab))

    def run_cell(cell):
        lam, seed = cell
        cell_config = replace(base, lam=lam, seed=seed)
        result = gcn.train(features, adj_norm, labels, masks, cell_config)
        return result, gcn.evaluate(features, adj_norm, result.params, lam, labels, masks["test"])

    return run_cell


def _run_cells(run_cell, cells, jobs: int) -> list:
    """run_cell over cells on jobs threads; results in cell order, so they do not depend on jobs."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run_cell, cells))


def _run_seeds(man: RunManifest, seeds, jobs: int, run_one, prefix: str):
    """Train every seed through _run_cells, then write the per-seed files and the aggregate.

    run_one(seed) returns (parameter blocks, history, test report, extra
    metrics fields), written in seed order as <prefix>checkpoint-seed<N>.bin,
    <prefix>history-seed<N>.csv and <prefix>metrics-seed<N>.json. Returns the
    aggregate, also written to <prefix>aggregate.json.
    """
    outcomes = _run_cells(run_one, seeds, jobs)
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
    run_cell = _gcn_cell(args, config)

    def run_one(seed: int):
        result, report = run_cell((config["lam"], seed))
        return result.params, result.history, report, {"best_epoch": result.best_epoch}

    agg = _run_seeds(man, config["seeds"], config["jobs"], run_one, "")
    print(evaluation.render_aggregate({"test": agg}), end="")


def cmd_train_conv(args, config: dict, man: RunManifest) -> None:
    base = _from_config(convnet.ConvHeadConfig, config, epochs=config["conv_epochs"])
    corpus = load_tokenized(args.tokenized)
    split = load_split(args.split).aligned(corpus.doc_ids)
    sequences = convnet.load_token_embeddings(args.sequences, base, known_ids=corpus.doc_ids)
    aligned, labels, masks = convnet.align_sequences(sequences, corpus, split)
    test_seqs = [seq for seq, flag in zip(aligned, masks["test"]) if flag]
    test_gold = labels[masks["test"]]

    def run_one(seed: int):
        result = convnet.train_conv(aligned, labels, masks, replace(base, seed=seed))
        preds = convnet.classify(convnet.conv_logits(test_seqs, result.params, base.batch_size))
        report = evaluation.metrics(evaluation.confusion(preds, test_gold))
        return convnet.param_blocks(result.params), result.history, report, {}

    agg = _run_seeds(man, config["seeds"], config["jobs"], run_one, "conv-")
    print(evaluation.render_aggregate({"test": agg}), end="")


def cmd_ablate(args, config: dict, man: RunManifest) -> None:
    run_cell = _gcn_cell(args, config)
    grid, seeds = sorted(config["grid"]), config["seeds"]
    cells = [(lam, seed) for lam in grid for seed in seeds]
    reports = _run_cells(lambda cell: run_cell(cell)[1], cells, config["jobs"])
    rows = []
    for pos, lam in enumerate(grid):
        stats = evaluation.aggregate(reports[pos * len(seeds):(pos + 1) * len(seeds)]).stats
        (accuracy, acc_std), (f1, f1_std) = stats["accuracy"], stats["f1"]
        rows.append((lam, accuracy, f1, acc_std, f1_std))

    def formatted(spec):
        return [[f"{lam:g}", *(format(v, spec) for v in rest)] for lam, *rest in rows]

    header = ["lambda", "accuracy", "f1", "acc_std", "f1_std"]
    with atomic_write(man.output("ablation.csv")) as fh:
        csv.writer(fh).writerows([header, *formatted(".17g")])
    table = evaluation.render_table(header, formatted(".4f"))
    with atomic_write(man.output("ablation.txt")) as fh:
        fh.write(table)
    print(table, end="")


def cmd_prompts(args, config: dict, man: RunManifest) -> None:
    k = config["k"]
    docs = load_corpus(args.corpus)
    spec = prompting.PromptSpec()

    if args.split:
        split = load_split(args.split).aligned([d.id for d in docs])
        target_name = config["target_split"]
        if target_name not in SPLIT_NAMES:
            raise ValueError(f"unknown target split {target_name!r}")
        by_id = {d.id: d for d in docs}
        targets = [by_id[doc_id] for doc_id in split.ids_in(target_name)]
        pool_docs = [by_id[doc_id] for doc_id in split.ids_in("train")]
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


def _eval_predictions(args) -> tuple:
    corpus = load_tokenized(args.tokenized)
    preds = evaluation.read_predictions(args.pred, corpus.doc_ids)
    if args.split:
        eval_ids = load_split(args.split).aligned(corpus.doc_ids).ids_in(args.eval_split)
    else:
        eval_ids = [d for d in corpus.doc_ids if d in preds]
    missing = [d for d in eval_ids if d not in preds]
    if missing:
        raise ValueError(f"{len(missing)} evaluated documents lack predictions")
    gold = gold_labels(corpus, eval_ids)
    return evaluation.confusion([preds[d] for d in eval_ids], gold), {"n_eval": len(eval_ids)}


def _eval_transcripts(args) -> tuple:
    corpus = load_tokenized(args.tokenized)
    store = prompting.load_transcript_store(args.transcripts)
    records = prompting.read_prompt_records(args.prompts, corpus.doc_ids)
    gold = gold_labels(corpus, [doc_id for doc_id, _ in records])
    transcripts = [store.get(sha) for _, sha in records]
    scored, failures = prompting.transcript_predictions(transcripts, args.failures_as_negative)
    if not scored:
        raise ValueError("no evaluable transcripts (all missing or unparsed)")
    meta = {"n_prompts": len(transcripts), "parse_failures": failures}
    return evaluation.confusion([label for _, label in scored], [gold[i] for i, _ in scored]), meta


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
        cm = evaluation.read_counts(args.counts)
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
    # Both are built before either is written: a failure leaves an earlier export as it was.
    table = salience = None
    if args.label is not None:
        table = interpret.label_word_frequencies(corpus, args.label)
    if args.docs is not None:
        tfidf, ppmi = graph.read_graph_json(args.graph, corpus)
        if args.docs.isdecimal():
            doc_ids = corpus.doc_ids[: int(args.docs)]
        else:
            doc_ids = [part for part in args.docs.split(",") if part]
        salience = interpret.build_salience_graph(corpus, doc_ids, tfidf, ppmi, args.top_k)

    if table is not None:
        write_json(man.output(f"frequencies-label{args.label}.json"),
                   interpret.frequency_to_json(table), indent=2)
        print(f"label {args.label}: {len(table.entries)} ranked tokens")
    if salience is not None:
        write_json(man.output("salience.json"), interpret.salience_to_json(salience))
        with atomic_write(man.output("salience.dot")) as fh:
            fh.write(interpret.salience_to_dot(salience))
        print(
            f"salience graph: {len(salience.doc_nodes)} docs, "
            f"{len(salience.word_nodes)} words, {len(salience.w)} edges"
        )


def build_parser() -> argparse.ArgumentParser:
    """Every subparser sets func, its cmd_* handler looked up when this runs,
    and inputs, the dests of its flags that name input files. The dests of its
    other flags that are CONFIG_DEFAULTS keys are its config keys."""
    parser = _Parser(
        prog="stressgraph",
        description="Document-word graph classifier pipeline",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name, func, inputs, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output artifact directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.set_defaults(func=func, inputs=inputs)
        return p

    def gcn_flags(p):
        p.add_argument("--tokenized", required=True)
        p.add_argument("--graph", required=True)
        p.add_argument("--split", required=True)
        p.add_argument("--embeddings", help="document embedding file: CSV if named *.csv, else TGEM")
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

    p = command("ingest", cmd_ingest, ("corpus",), help="tokenize a corpus and build its vocabulary")
    p.add_argument("--corpus", required=True, help="document file: CSV if named *.csv, else JSONL")
    p.add_argument("--min-df", dest="min_df", type=int)
    p.add_argument("--lowercase", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument(
        "--keep-stopwords", dest="remove_stopwords", action="store_const", const=False,
        default=None, help="disable stopword removal",
    )

    p = command("split", cmd_split, ("tokenized",), help="stratified train/val/test assignment")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--ratios", type=_float_list)
    p.add_argument("--seed", dest="split_seed", type=int)

    p = command("build-graph", cmd_build_graph, ("tokenized",), help="TF-IDF + PPMI heterogeneous graph")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--window", type=int)

    p = command("train-gcn", cmd_train_gcn, GCN_INPUTS, help="train the fused graph + head classifier")
    gcn_flags(p)
    p.add_argument("--lambda", dest="lam", type=float)

    p = command("train-conv", cmd_train_conv, ("tokenized", "split", "sequences"),
                help="train the convolutional sequence head")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--sequences", required=True, help="token-embedding sequence file")
    p.add_argument("--kernel-sizes", dest="kernel_sizes", type=_int_list)
    p.add_argument("--filters", dest="n_filters", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--epochs", dest="conv_epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--seeds", type=_int_list)
    p.add_argument("--jobs", type=int)

    p = command("ablate", cmd_ablate, GCN_INPUTS, help="accuracy/F1 across an interpolation grid")
    gcn_flags(p)
    p.add_argument("--grid", type=_float_list, help="comma-separated interpolation values")

    p = command("prompts", cmd_prompts, ("corpus", "split"),
                help="build zero- or few-shot classification prompts")
    p.add_argument("--corpus", required=True,
                   help="raw document file (text is needed): CSV if named *.csv, else JSONL")
    p.add_argument("--split", help="split assignment file; exemplars come from train")
    p.add_argument("--k", type=int, choices=[0, 3, 10])
    p.add_argument("--seed", dest="prompt_seed", type=int)
    p.add_argument("--target-split", dest="target_split", choices=list(SPLIT_NAMES))

    p = command("eval", cmd_eval, ("counts", "pred", "transcripts", "prompts", "tokenized", "split"),
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

    p = command("export", cmd_export, ("tokenized", "graph"),
                help="interpretability exports (frequencies, salience)")
    p.add_argument("--tokenized", required=True)
    p.add_argument("--graph", help="graph.json from build-graph (required with --docs)")
    p.add_argument("--label", type=int, choices=[0, 1], help="word-frequency export label")
    p.add_argument("--docs", help="document count (first N) or comma-separated ids")
    p.add_argument("--k", dest="top_k", type=_non_negative_int, default=5,
                   help="salient words per document")

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
        config = resolve_config(args)
        man = RunManifest(
            command=args.command,
            config=config,
            seeds=config.get(
                "seeds", [config[key] for key in ("split_seed", "prompt_seed") if key in config]
            ),
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
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
