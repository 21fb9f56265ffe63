"""End-to-end command-line tests: artifacts, exit codes, determinism."""

import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import oracles
from oracles import read_manifest, write_embeddings_csv
from stressgraph import cli, convnet, evaluation, gcn, graph, prompting
from stressgraph.corpus import (
    TokenizerRules,
    load_split,
    load_tokenized,
    save_split,
    save_tokenized,
    stratified_split,
    tokenize_corpus,
)
from stressgraph.manifest import RunManifest, read_json, sha256_file, write_json, write_manifest

N_DOCS = 24

CALM_WORDS = ["sunny", "garden", "picnic", "gentle", "quiet"]
STRESS_WORDS = ["anxious", "worried", "tense", "dread", "panic"]


def write_corpus(path) -> None:
    """24 labeled documents, 12 per class, class-specific word groups.

    Two filler tokens appear in every document so the universal-word paths
    (zero idf, zero PMI) get exercised by the pipeline.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(N_DOCS):
            label = i % 2
            words = STRESS_WORDS if label else CALM_WORDS
            text = " ".join(
                [words[i % 5], words[(i + 1) % 5], words[0], "walk", "evening"]
            )
            rec = {"id": f"d{i:02d}", "text": text, "label": label}
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared ingest -> split -> build-graph run plus a document embedding file."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus_path = root / "corpus.jsonl"
    write_corpus(corpus_path)

    ingest_out = root / "ingest"
    rc = cli.main(
        ["ingest", "--corpus", str(corpus_path), "--min-df", "1",
         "--keep-stopwords", "--out", str(ingest_out)]
    )
    assert rc == cli.EXIT_OK
    tokenized = ingest_out / "tokenized.json"

    split_out = root / "splitdir"
    assert cli.main(["split", "--tokenized", str(tokenized), "--out", str(split_out)]) == 0

    graph_out = root / "graphdir"
    assert cli.main(["build-graph", "--tokenized", str(tokenized), "--out", str(graph_out)]) == 0

    corpus = load_tokenized(tokenized)
    rng = np.random.default_rng(7)
    rows = rng.normal(scale=0.1, size=(corpus.n_docs, 8))
    for i, label in enumerate(corpus.labels):
        rows[i, int(label)] += 1.0
    emb_path = root / "embeddings.csv"
    write_embeddings_csv(emb_path, graph.EmbeddingMatrix(values=rows))

    return {
        "root": root,
        "corpus": corpus_path,
        "ingest_out": ingest_out,
        "tokenized": tokenized,
        "vocab": ingest_out / "vocab.csv",
        "split": split_out / "split.jsonl",
        "graph": graph_out / "graph.json",
        "embeddings": emb_path,
    }


def artifact_digests(out_dir) -> dict:
    """SHA-256 of every artifact except the manifest (wall clock varies)."""
    return {
        name: sha256_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name != "manifest.json"
    }


def train_gcn_args(pipeline, out, extra=()) -> list:
    return [
        "train-gcn",
        "--tokenized", str(pipeline["tokenized"]),
        "--graph", str(pipeline["graph"]),
        "--split", str(pipeline["split"]),
        "--out", str(out),
        *extra,
    ]


# ---------------------------------------------------------------------------
# ingest / split / build-graph artifacts


def test_ingest_artifacts_and_manifest(pipeline):
    corpus = load_tokenized(pipeline["tokenized"])
    assert corpus.n_docs == N_DOCS
    assert len(corpus.vocab) == 12

    lines = pipeline["vocab"].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "token,doc_freq"
    assert len(lines) == 1 + 12
    assert "walk,24" in lines

    man = read_manifest(pipeline["ingest_out"] / "manifest.json")
    assert man.command == "ingest"
    assert man.config["min_df"] == 1
    assert man.config["remove_stopwords"] is False
    assert man.inputs[str(pipeline["corpus"])] == sha256_file(pipeline["corpus"])
    out_names = {os.path.basename(p) for p in man.outputs}
    assert out_names == {"tokenized.json", "vocab.csv"}
    assert man.outputs[str(pipeline["tokenized"])] == sha256_file(pipeline["tokenized"])


def test_split_sizes_and_coverage(pipeline):
    split = load_split(pipeline["split"])
    assert len(split.assignment) == N_DOCS
    assert len(split.ids_in("train")) == 16
    assert len(split.ids_in("val")) == 4
    assert len(split.ids_in("test")) == 4


def test_split_rejects_unlabeled_corpus(tmp_path, capsys):
    corpus_path = tmp_path / "c.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "a", "text": "sunny walk", "label": 0}) + "\n")
        fh.write(json.dumps({"id": "b", "text": "sunny walk"}) + "\n")
    out = tmp_path / "ing"
    assert cli.main(["ingest", "--corpus", str(corpus_path), "--min-df", "1",
                     "--out", str(out)]) == 0
    rc = cli.main(["split", "--tokenized", str(out / "tokenized.json"),
                   "--out", str(tmp_path / "sp")])
    assert rc == cli.EXIT_DATA
    assert "labeled" in capsys.readouterr().err


def test_split_non_finite_ratios_are_data_error(pipeline, tmp_path, capsys):
    out = tmp_path / "sp"
    rc = cli.main(["split", "--tokenized", str(pipeline["tokenized"]), "--ratios", "inf,-inf,1",
                   "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("data error:")] == [
        "data error: split ratios must lie in [0, 1], got (inf, -inf, 1.0)"
    ]
    assert "Traceback" not in err
    assert not (out / "split.jsonl").exists()


CSV_CORPUS = ('id,source,text,label\n'
              'a,forum,"sunny garden, long walk",0\n'
              'b,forum,"anxious\nworried walk",1\n'
              '\n'
              'c,,quiet garden morning,\n'
              'd,chat,worried anxious night,1\n')
# What ingest --format csv wrote for CSV_CORPUS before the file name chose the format.
CSV_CORPUS_TOKENIZED = (
    '{"doc_ids":["a","b","c","d"],"labels":[0,1,null,1],'
    '"sequences":[[0,1,2,3],[4,5,3],[6,1,7],[5,4,8]],'
    '"vocab":{"tokens":["sunny","garden","long","walk","anxious","worried","quiet","morning","night"]}}\n'
)


def test_ingest_and_prompts_read_a_csv_corpus_by_its_file_name(tmp_path):
    (tmp_path / "c.csv").write_text(CSV_CORPUS, encoding="utf-8")
    records = [{"id": "a", "text": "sunny garden, long walk", "label": 0},
               {"id": "b", "text": "anxious\nworried walk", "label": 1},
               {"id": "c", "text": "quiet garden morning"},
               {"id": "d", "text": "worried anxious night", "label": 1}]
    (tmp_path / "c.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    for name in ("c.csv", "c.jsonl"):
        corpus = str(tmp_path / name)
        out = tmp_path / f"ing-{name}"
        assert cli.main(["ingest", "--corpus", corpus, "--min-df", "1", "--out", str(out)]) == 0
        assert (out / "tokenized.json").read_text(encoding="utf-8") == CSV_CORPUS_TOKENIZED
        assert cli.main(["prompts", "--corpus", corpus, "--out", str(tmp_path / f"pr-{name}")]) == 0
    assert (tmp_path / "pr-c.csv" / "prompts.jsonl").read_bytes() == \
        (tmp_path / "pr-c.jsonl" / "prompts.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["ingest", "prompts"])
def test_format_flag_is_usage_error(tmp_path, capsys, command):
    (tmp_path / "c.csv").write_text(CSV_CORPUS, encoding="utf-8")
    rc = cli.main([command, "--corpus", str(tmp_path / "c.csv"), "--format", "csv",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("label, shown", [
    ("1.5", "1.5"), ("true", "True"), ("0.99", "0.99"), ("-0.5", "-0.5"), ("false", "False"),
])
def test_ingest_label_neither_0_nor_1_is_data_error(tmp_path, capsys, label, shown):
    # int() used to truncate each of these JSON labels to 0 or 1.
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text('{"id": "a", "text": "sunny garden walk", "label": 0}\n'
                           f'{{"id": "b", "text": "anxious walk", "label": {label}}}\n',
                           encoding="utf-8")
    rc = cli.main(["ingest", "--corpus", str(corpus_path), "--min-df", "1",
                   "--out", str(tmp_path / "ing")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("data error:")] == [
        f"data error: corpus line 2: label {shown} is not an integer"
    ]


def test_ingest_keeps_integral_json_labels(tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    labels = ["0", "1", "0.0", "1.0", '"0"', '"1"']
    lines = [f'{{"id": "d{i}", "text": "walk", "label": {label}}}\n' for i, label in enumerate(labels)]
    corpus_path.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "ing"
    rc = cli.main(["ingest", "--corpus", str(corpus_path), "--min-df", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert load_tokenized(out / "tokenized.json").labels == [0, 1, 0, 1, 0, 1]


def test_build_graph_artifact(pipeline):
    with open(pipeline["graph"], "r", encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["n_docs"] == N_DOCS
    assert data["n_words"] == 12
    kinds = {edge["kind"] for edge in data["edges"]}
    assert kinds == {"doc-word", "word-word"}
    assert all(edge["w"] > 0 for edge in data["edges"])

    # Universal tokens carry zero idf and zero PMI, so they get no edges.
    corpus = load_tokenized(pipeline["tokenized"])
    for token in ("walk", "evening"):
        node = N_DOCS + corpus.vocab.index[token]
        assert not any(node in (e["a"], e["b"]) for e in data["edges"])


# ---------------------------------------------------------------------------
# train-gcn


def test_train_gcn_end_to_end(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(train_gcn_args(pipeline, out, [
        "--embeddings", str(pipeline["embeddings"]),
        "--epochs", "5", "--seeds", "0,1", "--hidden-dim", "8",
    ]))
    assert rc == cli.EXIT_OK
    assert "+/-" in capsys.readouterr().out

    for seed in (0, 1):
        params = gcn.load_checkpoint(out / f"checkpoint-seed{seed}.bin")
        # The blocks' order is the order init_parameters inserts them in.
        assert list(params) == ["gcn.W1", "gcn.b1", "gcn.W2", "gcn.b2", "head.W", "head.b"]
        assert params["gcn.W2"].shape[1] == 2
        assert params["head.W"].shape == (8, 2)

        history = (out / f"history-seed{seed}.csv").read_text(encoding="utf-8").splitlines()
        assert history[0] == "epoch,loss,val_acc,val_f1"
        assert len(history) == 1 + 5

        with open(out / f"metrics-seed{seed}.json", "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["seed"] == seed
        assert isinstance(payload["best_epoch"], int)
        assert 0.0 <= payload["accuracy"] <= 1.0

    with open(out / "aggregate.json", "r", encoding="utf-8") as fh:
        agg = json.load(fh)
    assert agg["n_runs"] == 2
    assert set(agg["metrics"]) == {"precision", "recall", "f1", "accuracy"}
    assert "mean" in agg["metrics"]["accuracy"] and "std" in agg["metrics"]["accuracy"]


def test_train_gcn_rerun_is_bit_identical(pipeline, tmp_path):
    flags = ["--embeddings", str(pipeline["embeddings"]),
             "--epochs", "5", "--seeds", "0,1", "--hidden-dim", "8"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(train_gcn_args(pipeline, out_a, flags)) == 0
    assert cli.main(train_gcn_args(pipeline, out_b, flags)) == 0
    assert artifact_digests(out_a) == artifact_digests(out_b)

    with open(out_a / "manifest.json", "r", encoding="utf-8") as fh:
        man_a = json.load(fh)
    with open(out_b / "manifest.json", "r", encoding="utf-8") as fh:
        man_b = json.load(fh)
    man_a.pop("wall_clock_seconds")
    man_b.pop("wall_clock_seconds")
    # Output paths differ between the two directories; digests must not.
    assert sorted(man_a.pop("outputs").values()) == sorted(man_b.pop("outputs").values())
    assert man_a == man_b


def test_train_gcn_worker_pool_matches_serial(pipeline, tmp_path):
    flags = ["--embeddings", str(pipeline["embeddings"]),
             "--epochs", "5", "--seeds", "0,1", "--hidden-dim", "8"]
    out_serial, out_pool = tmp_path / "serial", tmp_path / "pool"
    assert cli.main(train_gcn_args(pipeline, out_serial, flags)) == 0
    assert cli.main(train_gcn_args(pipeline, out_pool, flags + ["--jobs", "2"])) == 0
    assert artifact_digests(out_serial) == artifact_digests(out_pool)


def test_train_gcn_requires_feature_source(pipeline, tmp_path, capsys):
    rc = cli.main(train_gcn_args(pipeline, tmp_path / "run", ["--epochs", "1"]))
    assert rc == cli.EXIT_DATA
    assert "--embeddings" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-gcn", "ablate"])
def test_identity_and_embeddings_together_rejected(pipeline, tmp_path, capsys, command):
    out = tmp_path / "run"
    flags = ["--identity", "--embeddings", str(pipeline["embeddings"]),
             "--epochs", "1", "--seeds", "0", "--hidden-dim", "4"]
    assert cli.main([command, *train_gcn_args(pipeline, out, flags)[1:]]) == cli.EXIT_DATA
    assert "exactly one of --embeddings FILE and --identity" in capsys.readouterr().err
    assert not out.exists()


def test_train_gcn_zero_hidden_units_is_data_error(pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    extra = ["--identity", "--lambda", "1", "--hidden-dim", "0"]
    assert cli.main(train_gcn_args(pipeline, out, extra)) == cli.EXIT_DATA
    assert "hidden_dim" in capsys.readouterr().err
    assert not out.exists()


def test_train_gcn_identity_needs_full_graph_weight(pipeline, tmp_path, capsys):
    base = ["--identity", "--epochs", "2", "--seeds", "0", "--hidden-dim", "4"]
    # Identity mode has no linear head, so the default 0.2 interpolation fails.
    assert cli.main(train_gcn_args(pipeline, tmp_path / "bad", base)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("data error:")] == [
        "data error: without embeddings the model is GCN-only; lam must be 1"
    ]
    rc = cli.main(train_gcn_args(pipeline, tmp_path / "ok", base + ["--lambda", "1"]))
    assert rc == cli.EXIT_OK
    # Without a head the checkpoint holds the GCN's four blocks, in init_parameters' order.
    params = gcn.load_checkpoint(tmp_path / "ok" / "checkpoint-seed0.bin")
    assert list(params) == ["gcn.W1", "gcn.b1", "gcn.W2", "gcn.b2"]


@pytest.mark.parametrize("command", ["train-gcn", "train-conv"])
def test_diverging_run_prints_one_numerical_failure_line(pipeline, tmp_path, command):
    # In a fresh interpreter, as a user runs it: numpy's overflow and invalid-value
    # warnings would print, each with its source line, before the error line.
    out = tmp_path / "run"
    if command == "train-gcn":
        argv = train_gcn_args(pipeline, out, ["--identity", "--lambda", "1", "--epochs", "3",
                                              "--seeds", "0", "--learning-rate", "1e300"])
    else:
        seq_path = tmp_path / "sequences.bin"
        write_sequences(seq_path, load_tokenized(pipeline["tokenized"]))
        argv = ["train-conv", "--tokenized", str(pipeline["tokenized"]),
                "--split", str(pipeline["split"]), "--sequences", str(seq_path),
                "--kernel-sizes", "2", "--filters", "2", "--epochs", "3", "--seeds", "0",
                "--learning-rate", "1e300", "--out", str(out)]
    proc = run_module(argv)
    assert proc.returncode == cli.EXIT_NUMERIC
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_train_gcn_divergence_exit_code(pipeline, tmp_path, capsys):
    rc = cli.main(train_gcn_args(pipeline, tmp_path / "run", [
        "--identity", "--lambda", "1", "--epochs", "3", "--seeds", "0",
        "--hidden-dim", "4", "--weight-decay", "1e308",
    ]))
    assert rc == cli.EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_train_gcn_non_finite_embedding_is_data_error(pipeline, tmp_path, capsys, suffix):
    rows = graph.read_embeddings(pipeline["embeddings"]).values.astype(np.float32)
    rows[1, 0] = np.nan
    path = tmp_path / f"emb{suffix}"
    if suffix == ".csv":
        np.savetxt(path, rows, delimiter=",")
    else:
        path.write_bytes(b"TGEM" + struct.pack("<IQQ", 1, *rows.shape) + rows.astype("<f4").tobytes())
    rc = cli.main(train_gcn_args(pipeline, tmp_path / "run", [
        "--embeddings", str(path), "--epochs", "2", "--seeds", "0", "--hidden-dim", "4",
    ]))
    assert rc == cli.EXIT_DATA
    assert "non-finite" in capsys.readouterr().err


def test_train_gcn_embeddings_of_width_zero_are_data_error(pipeline, tmp_path, capsys):
    # A TGEM file of no columns once trained a model that read nothing (test F1 0.333).
    path = tmp_path / "emb.bin"
    path.write_bytes(b"TGEM" + struct.pack("<IQQ", 1, N_DOCS, 0))
    out = tmp_path / "run"
    rc = cli.main(train_gcn_args(pipeline, out, [
        "--embeddings", str(path), "--epochs", "2", "--seeds", "0", "--hidden-dim", "4",
    ]))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("data error:")] == [
        "data error: embedding matrix must have at least one column"
    ]
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_train_gcn_embedding_row_count_mismatch_is_data_error(pipeline, tmp_path, capsys, suffix):
    rows = graph.read_embeddings(pipeline["embeddings"]).values[:-1]
    path = tmp_path / f"emb{suffix}"
    write = write_embeddings_csv if suffix == ".csv" else graph.write_embeddings
    write(path, graph.EmbeddingMatrix(values=rows))
    args = train_gcn_args(pipeline, tmp_path / "run", ["--embeddings", str(path), "--seeds", "0"])
    assert cli.main(args) == cli.EXIT_DATA
    assert f"embedding rows ({N_DOCS - 1}) do not match" in capsys.readouterr().err


def test_train_gcn_misaligned_split_rejected(pipeline, tmp_path, capsys):
    bad_split = tmp_path / "bad.jsonl"
    with open(bad_split, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "d00", "split": "train"}) + "\n")
    rc = cli.main([
        "train-gcn", "--tokenized", str(pipeline["tokenized"]),
        "--graph", str(pipeline["graph"]), "--split", str(bad_split),
        "--identity", "--lambda", "1", "--out", str(tmp_path / "run"),
    ])
    assert rc == cli.EXIT_DATA
    assert "align" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate


def test_ablate_default_grid(pipeline, tmp_path):
    out = tmp_path / "abl"
    rc = cli.main([
        "ablate", "--tokenized", str(pipeline["tokenized"]),
        "--graph", str(pipeline["graph"]), "--split", str(pipeline["split"]),
        "--embeddings", str(pipeline["embeddings"]),
        "--epochs", "2", "--seeds", "0", "--hidden-dim", "4",
        "--out", str(out),
    ])
    assert rc == cli.EXIT_OK

    lines = (out / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lambda,accuracy,f1,acc_std,f1_std"
    assert len(lines) == 1 + 11
    lams = [float(line.split(",")[0]) for line in lines[1:]]
    assert lams == [round(i / 10, 1) for i in range(11)]
    # One seed per cell: the spread columns collapse to zero.
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[3]) == 0.0 and float(parts[4]) == 0.0
    assert (out / "ablation.txt").exists()


def test_ablate_rejects_grid_outside_unit_interval(pipeline, tmp_path, capsys):
    rc = cli.main([
        "ablate", "--tokenized", str(pipeline["tokenized"]),
        "--graph", str(pipeline["graph"]), "--split", str(pipeline["split"]),
        "--embeddings", str(pipeline["embeddings"]),
        "--grid", "0.2,1.5", "--epochs", "1", "--seeds", "0",
        "--out", str(tmp_path / "abl"),
    ])
    assert rc == cli.EXIT_DATA
    assert "grid" in capsys.readouterr().err


def ablate_args(pipeline, out, extra=()) -> list:
    return [
        "ablate", "--tokenized", str(pipeline["tokenized"]),
        "--graph", str(pipeline["graph"]), "--split", str(pipeline["split"]),
        "--embeddings", str(pipeline["embeddings"]),
        "--grid", "1,0,0.5", "--epochs", "3", "--seeds", "0,1", "--hidden-dim", "4",
        "--out", str(out), *extra,
    ]


def test_ablate_worker_pool_matches_serial(pipeline, tmp_path):
    out_serial, out_pool = tmp_path / "serial", tmp_path / "pool"
    assert cli.main(ablate_args(pipeline, out_serial)) == 0
    assert cli.main(ablate_args(pipeline, out_pool, ["--jobs", "2"])) == 0
    for name in ("ablation.csv", "ablation.txt"):
        assert (out_serial / name).read_bytes() == (out_pool / name).read_bytes()


def pipeline_training_inputs(pipeline):
    """(features, adj, labels, masks) of the pipeline's embedding-mode inputs, built by hand."""
    corpus = load_tokenized(pipeline["tokenized"])
    with open(pipeline["graph"], "r", encoding="utf-8") as fh:
        tfidf, word_edges, _ = graph.load_graph_json(json.load(fh))
    n_words = len(corpus.vocab)
    adj = graph.normalize_adjacency(
        graph.assemble_adjacency(tfidf, word_edges, corpus.n_docs, n_words)
    )
    embeddings = graph.read_embeddings(pipeline["embeddings"])
    features = graph.build_node_features(embeddings, corpus.n_docs, n_words)
    split = load_split(pipeline["split"])
    masks = {name: np.asarray(split.mask(corpus.doc_ids, name)) for name in ("train", "val", "test")}
    return features, adj, corpus.labels, masks


def read_ablation_rows(out) -> list:
    with open(out / "ablation.csv", "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_ablate_csv_matches_library_sweep(pipeline, tmp_path):
    out = tmp_path / "abl"
    assert cli.main(ablate_args(pipeline, out)) == 0

    features, adj, labels, masks = pipeline_training_inputs(pipeline)
    rows = oracles.reference_ablation(
        [1.0, 0.0, 0.5], gcn.TrainingConfig(epochs=3, hidden_dim=4), features, adj,
        labels, masks, [0, 1],
    )
    expected = "lambda,accuracy,f1,acc_std,f1_std\r\n" + "".join(
        f"{lam:g},{acc:.17g},{f1:.17g},{acc_std:.17g},{f1_std:.17g}\r\n"
        for lam, acc, f1, acc_std, f1_std in rows
    )
    assert (out / "ablation.csv").read_bytes() == expected.encode("utf-8")


def test_ablate_matches_individual_runs(pipeline, tmp_path):
    out = tmp_path / "abl"
    assert cli.main(ablate_args(pipeline, out)[:-2] + [
        "--grid", "1,0,0.5", "--seeds", "0,1", "--epochs", "6", "--dropout", "0",
        "--hidden-dim", "200", "--out", str(out),
    ]) == 0
    rows = [[float(cell) for cell in row] for row in read_ablation_rows(out)[1:]]
    assert [r[0] for r in rows] == [0.0, 0.5, 1.0]

    features, adj, labels, masks = pipeline_training_inputs(pipeline)
    for lam, accuracy, f1, acc_std, _ in rows:
        accs, f1s = [], []
        for seed in (0, 1):
            cfg = gcn.TrainingConfig(epochs=6, dropout=0.0, lam=lam, seed=seed)
            result = gcn.train(features, adj, labels, masks, cfg)
            rep = gcn.evaluate(features, adj, result.params, lam, labels, masks["test"])
            accs.append(rep.accuracy)
            f1s.append(rep.f1)
        assert abs(accuracy - np.mean(accs)) < 1e-12
        assert abs(f1 - np.mean(f1s)) < 1e-12
        assert abs(acc_std - np.std(accs, ddof=1)) < 1e-12


def test_ablate_rejects_out_of_range_grid_before_training(pipeline, tmp_path, monkeypatch,
                                                          capsys):
    calls = []
    real_train = gcn.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(gcn, "train", counting_train)
    out = tmp_path / "abl"
    rc = cli.main(ablate_args(pipeline, out)[:-2] + [
        "--grid", "0.2,1.5", "--epochs", "1", "--seeds", "0", "--out", str(out),
    ])
    assert rc == cli.EXIT_DATA
    assert "grid" in capsys.readouterr().err
    assert calls == []


def test_ablation_csv_format(pipeline, tmp_path):
    out = tmp_path / "abl"
    assert cli.main(ablate_args(pipeline, out)[:-2] + [
        "--grid", "0,1", "--epochs", "2", "--seeds", "0", "--hidden-dim", "200",
        "--out", str(out),
    ]) == 0
    rows = read_ablation_rows(out)
    assert rows[0] == ["lambda", "accuracy", "f1", "acc_std", "f1_std"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]


# ---------------------------------------------------------------------------
# config file layering


def test_config_file_overrides_defaults_and_flags_win(pipeline, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"window": 7}), encoding="utf-8")
    base = ["build-graph", "--tokenized", str(pipeline["tokenized"])]

    out_default = tmp_path / "default"
    assert cli.main(base + ["--out", str(out_default)]) == 0
    assert read_manifest(out_default / "manifest.json").config["window"] == 20

    out_file = tmp_path / "file"
    assert cli.main(base + ["--config", str(config_path), "--out", str(out_file)]) == 0
    assert read_manifest(out_file / "manifest.json").config["window"] == 7

    out_flag = tmp_path / "flag"
    assert cli.main(base + ["--config", str(config_path), "--window", "3",
                            "--out", str(out_flag)]) == 0
    assert read_manifest(out_flag / "manifest.json").config["window"] == 3


def test_config_file_unknown_keys_rejected(pipeline, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"widnow": 7}), encoding="utf-8")
    rc = cli.main(["build-graph", "--tokenized", str(pipeline["tokenized"]),
                   "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "unknown config file keys" in capsys.readouterr().err


def test_config_file_format_key_rejected(tmp_path, capsys):
    (tmp_path / "c.csv").write_text(CSV_CORPUS, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"format": "csv"}), encoding="utf-8")
    rc = cli.main(["ingest", "--corpus", str(tmp_path / "c.csv"), "--config", str(config_path),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: unknown config file keys: ['format']\n"


def test_cli_defaults_equal_library_defaults():
    # Each default is written twice: in the library and in CONFIG_DEFAULTS.
    library = {f.name: f.default for f in dataclasses.fields(gcn.TrainingConfig) if f.name != "seed"}
    for f in dataclasses.fields(convnet.ConvHeadConfig):
        key = "conv_epochs" if f.name == "epochs" else f.name
        if key != "seed":
            # dropout and learning_rate are one key for both models.
            assert library.setdefault(key, f.default) == f.default, key
    split = inspect.signature(stratified_split).parameters
    library.update(
        min_df=inspect.signature(tokenize_corpus).parameters["min_df"].default,
        averaging=inspect.signature(evaluation.metrics).parameters["averaging"].default,
        ratios=split["ratios"].default,
        split_seed=split["seed"].default,
        window=graph.DEFAULT_WINDOW_SIZE,
    )
    assert len(library) == 17
    for key, default in library.items():
        value = cli.CONFIG_DEFAULTS[key]
        assert (tuple(value) if type(value) is list else value) == default, key
    assert cli._rules(cli.CONFIG_DEFAULTS) == TokenizerRules()


@pytest.mark.parametrize("command, document", [
    ("ingest", 5),
    ("build-graph", {"window": None}),
    ("train-gcn", {"seeds": 5}),
], ids=["not-an-object", "null-window", "int-seeds"])
def test_config_file_wrong_types_are_data_errors(pipeline, tmp_path, capsys, command, document):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document), encoding="utf-8")
    inputs = {
        "ingest": ["--corpus", str(pipeline["corpus"])],
        "build-graph": ["--tokenized", str(pipeline["tokenized"])],
        "train-gcn": train_gcn_args(pipeline, tmp_path / "run", ["--identity", "--lambda", "1"])[1:],
    }[command]
    argv = [command, *inputs, "--config", str(config_path)]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "config file" in capsys.readouterr().err


def test_ablate_reads_no_lam_from_its_config_file(pipeline, tmp_path):
    # ablate's lam values come from --grid; a lam in the file is another command's key.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"lam": 7}), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(ablate_args(pipeline, out, ["--config", str(config_path)])) == cli.EXIT_OK
    assert "lam" not in read_manifest(out / "manifest.json").config


def test_manifest_seeds_and_threads_come_from_the_config(pipeline, tmp_path):
    out = tmp_path / "split"
    assert cli.main(["split", "--tokenized", str(pipeline["tokenized"]), "--seed", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    man = read_manifest(out / "manifest.json")
    assert (man.command, man.seeds) == ("split", [3])

    out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]), "--seed", "4",
                     "--out", str(out)]) == cli.EXIT_OK
    assert read_manifest(out / "manifest.json").seeds == [4]

    out = tmp_path / "train"
    assert cli.main(train_gcn_args(pipeline, out, [
        "--identity", "--lambda", "1", "--epochs", "1", "--hidden-dim", "4",
        "--seeds", "2,5", "--jobs", "2",
    ])) == cli.EXIT_OK
    man = read_manifest(out / "manifest.json")
    assert (man.command, man.seeds) == ("train-gcn", [2, 5])
    assert man.config["seeds"] == [2, 5] and man.config["jobs"] == 2
    assert man.wall_clock_seconds > 0.0

    out = tmp_path / "graph"
    assert cli.main(["build-graph", "--tokenized", str(pipeline["tokenized"]),
                     "--out", str(out)]) == cli.EXIT_OK
    assert read_manifest(out / "manifest.json").seeds == []


def manifest_runs(pipeline, tmp_path) -> dict:
    """Per subcommand: the file each input flag names, and the other flags of one short run."""
    corpus = load_tokenized(pipeline["tokenized"])
    sequences = tmp_path / "sequences.bin"
    write_sequences(sequences, corpus)
    pred = tmp_path / "pred.csv"
    pred.write_text("id,pred\n" + "".join(f"{d},1\n" for d in corpus.doc_ids), encoding="utf-8")
    trained = {name: pipeline[name] for name in ("tokenized", "graph", "split", "embeddings")}
    short = ["--epochs", "1", "--hidden-dim", "4", "--seeds", "0,1"]
    return {
        "ingest": ({"corpus": pipeline["corpus"]}, ["--min-df", "1"]),
        "split": ({"tokenized": pipeline["tokenized"]}, []),
        "build-graph": ({"tokenized": pipeline["tokenized"]}, []),
        "train-gcn": (trained, short),
        "train-conv": (
            {"tokenized": pipeline["tokenized"], "split": pipeline["split"], "sequences": sequences},
            ["--kernel-sizes", "2", "--filters", "2", "--epochs", "1", "--seeds", "0"],
        ),
        "ablate": (trained, short + ["--grid", "0,1"]),
        "prompts": ({"corpus": pipeline["corpus"], "split": pipeline["split"]}, ["--k", "3"]),
        "eval": ({"pred": pred, "tokenized": pipeline["tokenized"], "split": pipeline["split"]}, []),
        "export": ({"tokenized": pipeline["tokenized"], "graph": pipeline["graph"]},
                   ["--docs", "3", "--label", "1"]),
    }


COMMANDS = ["ingest", "split", "build-graph", "train-gcn", "train-conv", "ablate", "prompts", "eval",
            "export"]


def run_manifest(pipeline, tmp_path, command) -> tuple:
    """(the files its input flags name, its manifest) of one short run of command."""
    inputs, flags = manifest_runs(pipeline, tmp_path)[command]
    out = tmp_path / "out"
    named = [arg for flag, path in inputs.items() for arg in (f"--{flag}", str(path))]
    assert cli.main([command, *named, *flags, "--out", str(out)]) == cli.EXIT_OK
    return inputs, read_manifest(out / "manifest.json")


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_records_named_inputs_and_every_output(pipeline, tmp_path, command):
    inputs, man = run_manifest(pipeline, tmp_path, command)
    out = tmp_path / "out"
    assert man.inputs == {str(path): sha256_file(path) for path in inputs.values()}
    assert man.outputs == {str(out / name): digest for name, digest in artifact_digests(out).items()}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_config_holds_the_config_keys_of_the_command_flags(pipeline, tmp_path, command):
    # A key no flag of the command sets is never read by it, and a flag whose
    # key were not resolved would be parsed and then silently ignored.
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for action in commands.choices[command]._actions}
    _, man = run_manifest(pipeline, tmp_path, command)
    assert set(man.config) == dests & set(cli.CONFIG_DEFAULTS)


def test_eval_counts_records_a_stray_named_input(pipeline, tmp_path):
    # --counts mode reads no corpus, but the --tokenized file it names is an
    # input all the same, and a named file that does not exist is a data error.
    counts = tmp_path / "counts.json"
    counts.write_text('{"tn": 3, "fp": 1, "fn": 1, "tp": 3}', encoding="utf-8")
    out = tmp_path / "report"
    assert cli.main(["eval", "--counts", str(counts), "--tokenized", str(pipeline["tokenized"]),
                     "--out", str(out)]) == cli.EXIT_OK
    assert read_manifest(out / "manifest.json").inputs == {
        str(path): sha256_file(path) for path in (counts, pipeline["tokenized"])
    }
    out = tmp_path / "missing"
    assert cli.main(["eval", "--counts", str(counts), "--tokenized", str(tmp_path / "nope.json"),
                     "--out", str(out)]) == cli.EXIT_DATA
    assert not out.exists()


# ---------------------------------------------------------------------------
# usage and data errors


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == cli.EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_missing_required_flag_is_usage_error():
    assert cli.main(["ingest", "--out", "somewhere"]) == cli.EXIT_USAGE


def test_unknown_flag_is_usage_error(pipeline):
    rc = cli.main(["split", "--tokenized", str(pipeline["tokenized"]),
                   "--out", "x", "--bogus"])
    assert rc == cli.EXIT_USAGE


def test_eval_requires_exactly_one_mode(pipeline, tmp_path, capsys):
    assert cli.main(["eval", "--out", str(tmp_path / "a")]) == cli.EXIT_USAGE
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"tn": 1, "fp": 0, "fn": 0, "tp": 1}), encoding="utf-8")
    rc = cli.main(["eval", "--counts", str(counts), "--pred", str(counts),
                   "--out", str(tmp_path / "b")])
    assert rc == cli.EXIT_USAGE
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("mode, given", [
    ("--pred", []), ("--transcripts", ["--prompts"]), ("--transcripts", ["--tokenized"]),
], ids=["pred-without-tokenized", "transcripts-without-tokenized", "transcripts-without-prompts"])
def test_eval_mode_without_its_companion_files_is_usage_error(tmp_path, capsys, mode, given):
    named = tmp_path / "named.txt"
    named.write_text("x\n", encoding="utf-8")
    argv = ["eval", mode, str(named), *(arg for flag in given for arg in (flag, str(named)))]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert "need" in capsys.readouterr().err


def test_export_requires_a_selection(pipeline, tmp_path):
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE


def test_few_shot_prompts_need_split(pipeline, tmp_path):
    rc = cli.main(["prompts", "--corpus", str(pipeline["corpus"]), "--k", "3",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("command, flag, text, kind", [
    ("train-gcn", "--seeds", "1,x", "integers"),
    ("ablate", "--seeds", "0,1e3", "integers"),
    ("train-conv", "--kernel-sizes", "3,4.5", "integers"),
    ("split", "--ratios", "0.8,0.1,a", "numbers"),
    ("ablate", "--grid", "0.2,lots", "numbers"),
], ids=["train-gcn-seeds", "ablate-seeds", "train-conv-kernel-sizes", "split-ratios", "ablate-grid"])
def test_malformed_number_list_is_usage_error(tmp_path, capsys, command, flag, text, kind):
    out = tmp_path / "out"
    assert cli.main([command, flag, text, "--out", str(out)]) == cli.EXIT_USAGE
    assert f"expected comma-separated {kind}, got {text!r}" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_corpus_reports_line_number(tmp_path, capsys):
    corpus_path = tmp_path / "bad.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "a", "text": "x", "label": 0}) + "\n")
        fh.write(json.dumps({"id": "b", "text": "y", "label": 1}) + "\n")
        fh.write("{not json\n")
    rc = cli.main(["ingest", "--corpus", str(corpus_path), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "line 3" in capsys.readouterr().err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = cli.main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["config", "corpus", "tokenized", "split", "graph", "counts",
                                  "prompts", "transcripts"])
def test_deeply_nested_json_input_is_data_error(pipeline, tmp_path, capsys, name):
    # Deeper than the JSON parser's recursion limit; every other input is valid.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "\n", encoding="utf-8")
    counts, empty = tmp_path / "counts.json", tmp_path / "empty.jsonl"
    counts.write_text('{"tn": 1, "fp": 0, "fn": 0, "tp": 1}', encoding="utf-8")
    empty.write_text("", encoding="utf-8")
    tokenized = pipeline["tokenized"]
    args = {
        "config": ["eval", "--counts", counts, "--config", deep],
        "corpus": ["ingest", "--corpus", deep],
        "tokenized": ["split", "--tokenized", deep],
        "split": ["prompts", "--corpus", pipeline["corpus"], "--split", deep],
        "graph": ["export", "--tokenized", tokenized, "--graph", deep, "--docs", "1"],
        "counts": ["eval", "--counts", deep],
        "prompts": ["eval", "--transcripts", empty, "--prompts", deep, "--tokenized", tokenized],
        "transcripts": ["eval", "--transcripts", deep, "--prompts", empty,
                        "--tokenized", tokenized],
    }[name]
    out = tmp_path / "out"
    assert cli.main([*map(str, args), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


def test_build_graph_out_of_range_token_id_is_data_error(tmp_path, capsys):
    tokenized = tmp_path / "tokenized.json"
    tokenized.write_text(json.dumps({
        "doc_ids": ["a", "b"],
        "labels": [0, 1],
        "sequences": [[0, 7], [1]],
        "vocab": {"tokens": ["x", "y"], "doc_freq": [1, 1], "n_docs": 2},
    }))
    rc = cli.main(["build-graph", "--tokenized", str(tokenized), "--out", str(tmp_path / "g")])
    assert rc == cli.EXIT_DATA
    assert "outside the vocabulary" in capsys.readouterr().err


def test_build_graph_recounts_a_stored_doc_freq(tmp_path):
    # x occurs in both documents, so its idf is ln(2/2) = 0 and it has no
    # doc-word edge; the doc_freq of 1 this file stores is never read.
    digests = []
    for vocab in ({"tokens": ["x", "y"], "doc_freq": [1, 1], "n_docs": 2}, {"tokens": ["x", "y"]}):
        tokenized, out = tmp_path / f"tokenized-{len(vocab)}.json", tmp_path / f"graph-{len(vocab)}"
        tokenized.write_text(json.dumps({
            "doc_ids": ["a", "b"], "labels": [0, 1], "sequences": [[0, 1], [0]], "vocab": vocab,
        }))
        assert load_tokenized(tokenized).vocab.doc_freq == [2, 1]
        assert cli.main(["build-graph", "--tokenized", str(tokenized), "--out", str(out)]) == 0
        digests.append(sha256_file(out / "graph.json"))
    assert digests[0] == digests[1]


# The pipeline corpus as tokenized.json was written when "vocab" also held each
# token's doc_freq and the document count, and the digest of the graph.json
# that build-graph wrote from it then.
OLD_TOKENIZED = os.path.join(os.path.dirname(__file__), "golden", "tokenized-with-doc-freq.json")
OLD_GRAPH_SHA256 = "802c8cbf2e0c821bd4f16c7966b0536b28926c6d4b838d70587bcb30e3c7e140"


def test_tokenized_json_is_the_old_file_without_doc_freq_and_n_docs(pipeline, tmp_path):
    old = read_json(OLD_TOKENIZED)
    assert list(old["vocab"]) == ["doc_freq", "n_docs", "tokens"]
    del old["vocab"]["doc_freq"], old["vocab"]["n_docs"]
    write_json(tmp_path / "expected.json", old)
    assert pipeline["tokenized"].read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_old_tokenized_json_loads_and_builds_the_same_graph(pipeline, tmp_path):
    old = load_tokenized(OLD_TOKENIZED)
    assert old == load_tokenized(pipeline["tokenized"])
    assert old.vocab.doc_freq == read_json(OLD_TOKENIZED)["vocab"]["doc_freq"]
    out = tmp_path / "graph"
    assert cli.main(["build-graph", "--tokenized", OLD_TOKENIZED, "--out", str(out)]) == 0
    assert sha256_file(out / "graph.json") == OLD_GRAPH_SHA256 == sha256_file(pipeline["graph"])


# ---------------------------------------------------------------------------
# eval


def test_eval_counts_matches_reference_confusion(tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(
        json.dumps({"tn": 665, "fp": 18, "fn": 159, "tp": 27}), encoding="utf-8"
    )
    out = tmp_path / "report"
    assert cli.main(["eval", "--counts", str(counts), "--out", str(out)]) == 0

    with open(out / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["confusion"] == {"tn": 665, "fp": 18, "fn": 159, "tp": 27}
    assert payload["accuracy"] == pytest.approx(0.796318, abs=5e-4)
    assert payload["precision"] == pytest.approx(0.762724, abs=5e-4)
    assert payload["recall"] == pytest.approx(0.796318, abs=5e-4)
    assert payload["f1"] == pytest.approx(0.743683, abs=5e-4)
    assert payload["averaging"] == "weighted"
    assert "0.7437" in (out / "report.txt").read_text(encoding="utf-8")


def test_eval_counts_macro_averaging(tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(
        json.dumps({"tn": 665, "fp": 18, "fn": 159, "tp": 27}), encoding="utf-8"
    )
    out = tmp_path / "report"
    assert cli.main(["eval", "--counts", str(counts), "--averaging", "macro",
                     "--out", str(out)]) == 0
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["averaging"] == "macro"
    assert payload["f1"] == payload["macro"]["f1"]


@pytest.mark.parametrize("payload, message", [
    ([1], "JSON object"),
    ({"tn": 1.5, "fp": 0, "fn": 0, "tp": 1}, "tn must be an integer, not 1.5"),
    ({"tn": 1, "fp": True, "fn": 0, "tp": 1}, "fp must be an integer, not True"),
    ({"tn": 1, "fp": 0, "fn": "2", "tp": 1}, "fn must be an integer, not '2'"),
    ({"tn": 1, "fp": 0, "fn": 0}, "tp must be an integer, not None"),
])
def test_eval_counts_rejects_malformed_file(tmp_path, capsys, payload, message):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(payload), encoding="utf-8")
    rc = cli.main(["eval", "--counts", str(counts), "--out", str(tmp_path / "report")])
    assert rc == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tn", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
def test_eval_counts_total_beyond_float_precision_is_data_error(tmp_path, capsys, tn):
    # 10**400 overflowed to a traceback in the metrics' float arithmetic.
    counts, out = tmp_path / "counts.json", tmp_path / "report"
    counts.write_text(f'{{"tn": {tn}, "fp": 0, "fn": 0, "tp": 0}}', encoding="utf-8")
    assert cli.main(["eval", "--counts", str(counts), "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: counts file tn + fp + fn + tp must not exceed 2**53\n"
    )
    assert not out.exists()


def test_eval_predictions_on_test_split(pipeline, tmp_path):
    corpus = load_tokenized(pipeline["tokenized"])
    split = load_split(pipeline["split"])
    test_ids = split.ids_in("test")
    gold = {doc_id: corpus.labels[corpus.row_of(doc_id)] for doc_id in corpus.doc_ids}

    pred_path = tmp_path / "pred.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("id,pred\n")
        for doc_id in corpus.doc_ids:
            pred = gold[doc_id]
            if doc_id == test_ids[0]:
                pred = 1 - pred
            fh.write(f"{doc_id},{pred}\n")

    out = tmp_path / "report"
    rc = cli.main(["eval", "--pred", str(pred_path),
                   "--tokenized", str(pipeline["tokenized"]),
                   "--split", str(pipeline["split"]), "--eval-split", "test",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_eval"] == 4
    assert payload["accuracy"] == pytest.approx(0.75)


def test_eval_predictions_without_split_scores_listed_ids(pipeline, tmp_path):
    corpus = load_tokenized(pipeline["tokenized"])
    pred_path = tmp_path / "pred.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("id,pred\n")
        for doc_id in corpus.doc_ids[:3]:
            fh.write(f"{doc_id},{corpus.labels[corpus.row_of(doc_id)]}\n")
    out = tmp_path / "report"
    rc = cli.main(["eval", "--pred", str(pred_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_eval"] == 3
    assert payload["accuracy"] == pytest.approx(1.0)


def test_eval_predictions_missing_id_is_data_error(pipeline, tmp_path, capsys):
    split = load_split(pipeline["split"])
    test_ids = split.ids_in("test")
    pred_path = tmp_path / "pred.csv"
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("id,pred\n")
        for doc_id in test_ids[1:]:
            fh.write(f"{doc_id},0\n")
    rc = cli.main(["eval", "--pred", str(pred_path),
                   "--tokenized", str(pipeline["tokenized"]),
                   "--split", str(pipeline["split"]), "--out", str(tmp_path / "rep")])
    assert rc == cli.EXIT_DATA
    assert "lack predictions" in capsys.readouterr().err


def test_eval_predictions_repeated_id_is_data_error(pipeline, tmp_path, capsys):
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("id,pred\nd00,0\nd01,1\nd00,1\n", encoding="utf-8")
    rc = cli.main(["eval", "--pred", str(pred_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(tmp_path / "rep")])
    assert rc == cli.EXIT_DATA
    assert "line 4: repeated prediction id 'd00'" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("d01,1,0", "predictions line 3: malformed prediction row: ['d01', '1', '0']"),
    ("d01,abc", "predictions line 3: prediction 'abc' is not 0 or 1"),
    ("d01,2", "predictions line 3: prediction '2' is not 0 or 1"),
], ids=["field-count", "not-an-integer", "not-0-or-1"])
def test_eval_predictions_malformed_row_names_its_line(pipeline, tmp_path, capsys, row, message):
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text(f"id,pred\nd00,0\n{row}\nd02,1\n", encoding="utf-8")
    rc = cli.main(["eval", "--pred", str(pred_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(tmp_path / "rep")])
    assert rc == cli.EXIT_DATA
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("with_split", [False, True])
def test_eval_predictions_unknown_id_is_data_error(pipeline, tmp_path, capsys, with_split):
    corpus = load_tokenized(pipeline["tokenized"])
    pred_path = tmp_path / "pred.csv"
    rows = [f"{doc_id},{corpus.labels[i]}\n" for i, doc_id in enumerate(corpus.doc_ids)]
    pred_path.write_text("id,pred\n" + "".join(rows) + "nosuchdoc,1\n", encoding="utf-8")
    args = ["eval", "--pred", str(pred_path), "--tokenized", str(pipeline["tokenized"]),
            "--out", str(tmp_path / "rep")]
    if with_split:
        args += ["--split", str(pipeline["split"])]
    assert cli.main(args) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {N_DOCS + 2}: prediction id 'nosuchdoc' is not in the corpus" in err


def test_eval_predictions_invalid_csv_names_its_line(pipeline, tmp_path, capsys):
    # A field over csv.field_size_limit() is a csv.Error (so is a NUL byte before Python 3.11).
    limit = csv.field_size_limit()
    pred_path = tmp_path / "pred.csv"
    pred_path.write_text("id,pred\nd00,0\nd01," + "1" * (limit + 1) + "\n", encoding="utf-8")
    rc = cli.main(["eval", "--pred", str(pred_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(tmp_path / "rep")])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: predictions line 3: invalid CSV (field larger than field limit ({limit}))\n"
    )


# ---------------------------------------------------------------------------
# prompts


def test_prompts_zero_shot_covers_all_documents(pipeline, tmp_path):
    out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--out", str(out)]) == 0
    records = [
        json.loads(line)
        for line in (out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == N_DOCS
    for rec in records:
        assert rec["prompt"].startswith("Task: Classify")
        assert rec["prompt"].endswith("Output:\n")
        digest = hashlib.sha256(rec["prompt"].encode("utf-8")).hexdigest()
        assert rec["prompt_sha256"] == digest
    with open(out / "shots.json", "r", encoding="utf-8") as fh:
        shots = json.load(fh)
    assert shots == {"k": 0, "seed": 0, "shots": []}


def test_prompts_rejects_non_string_split_ids(pipeline, tmp_path, capsys):
    split_path = tmp_path / "split.jsonl"
    split_path.write_text('{"id": [1], "split": "train"}\n', encoding="utf-8")
    rc = cli.main(["prompts", "--corpus", str(pipeline["corpus"]), "--split", str(split_path),
                   "--out", str(tmp_path / "prompts")])
    assert rc == cli.EXIT_DATA
    assert "not a string" in capsys.readouterr().err


def test_prompts_split_must_cover_the_corpus(pipeline, tmp_path, capsys):
    split = load_split(pipeline["split"])
    partial = tmp_path / "partial.jsonl"
    with open(partial, "w", encoding="utf-8") as fh:
        for doc_id in sorted(split.assignment)[:10]:
            fh.write(json.dumps({"id": doc_id, "split": split.assignment[doc_id]}) + "\n")
    out = tmp_path / "prompts"
    rc = cli.main(["prompts", "--corpus", str(pipeline["corpus"]), "--split", str(partial),
                   "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert "split does not align with the corpus" in capsys.readouterr().err
    assert not (out / "prompts.jsonl").exists()


def test_prompts_config_target_split_must_name_a_split(pipeline, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"target_split": "holdout"}), encoding="utf-8")
    out = tmp_path / "prompts"
    rc = cli.main(["prompts", "--corpus", str(pipeline["corpus"]), "--split", str(pipeline["split"]),
                   "--config", str(config_path), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: unknown target split 'holdout'\n"
    assert not (out / "prompts.jsonl").exists()


@pytest.mark.parametrize("target, ratios", [("test", "0.8,0.2,0"), ("val", "0.8,0,0.2")])
def test_prompts_for_an_empty_target_split_is_data_error(pipeline, tmp_path, capsys, target, ratios):
    assert cli.main(["split", "--tokenized", str(pipeline["tokenized"]), "--ratios", ratios,
                     "--out", str(tmp_path / "sp")]) == 0
    out = tmp_path / "prompts"
    capsys.readouterr()
    rc = cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                   "--split", str(tmp_path / "sp" / "split.jsonl"), "--target-split", target,
                   "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: no target documents to build prompts for\n"
    assert not (out / "prompts.jsonl").exists()


def test_prompts_few_shot_draws_from_train(pipeline, tmp_path):
    out = tmp_path / "prompts"
    rc = cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                   "--split", str(pipeline["split"]), "--k", "3", "--seed", "1",
                   "--target-split", "test", "--out", str(out)])
    assert rc == cli.EXIT_OK

    split = load_split(pipeline["split"])
    records = [
        json.loads(line)
        for line in (out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert {rec["id"] for rec in records} == set(split.ids_in("test"))
    for rec in records:
        assert rec["prompt"].count("Output:") == 4
        assert rec["prompt"].count("Task: Classify") == 1

    with open(out / "shots.json", "r", encoding="utf-8") as fh:
        shots = json.load(fh)
    assert shots["k"] == 3
    assert len(shots["shots"]) == 3
    assert sum(s["label"] for s in shots["shots"]) == 2
    shot_ids = {s["id"] for s in shots["shots"]}
    assert shot_ids <= set(split.ids_in("train"))
    assert not shot_ids & set(split.ids_in("test"))


def test_eval_transcripts_roundtrip(pipeline, tmp_path):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    records = [
        json.loads(line)
        for line in (prompts_out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 4

    corpus = load_tokenized(pipeline["tokenized"])
    spec = prompting.PromptSpec()
    store_path = tmp_path / "transcripts.jsonl"
    for pos, rec in enumerate(records):
        label = corpus.labels[corpus.row_of(rec["id"])]
        if pos == 0:
            label = 1 - label
        response = spec.category_for(label)
        prompting.append_transcript(store_path, prompting.CompletionTranscript(
            prompt=rec["prompt"], response=response,
            label=prompting.parse_label(response, spec), meta={},
        ))

    out = tmp_path / "report"
    rc = cli.main(["eval", "--transcripts", str(store_path),
                   "--prompts", str(prompts_out / "prompts.jsonl"),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["n_prompts"] == 4
    assert payload["parse_failures"] == 0
    assert payload["accuracy"] == pytest.approx(0.75)


def test_eval_transcripts_failure_handling(pipeline, tmp_path):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    records = [
        json.loads(line)
        for line in (prompts_out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()
    ]

    corpus = load_tokenized(pipeline["tokenized"])
    spec = prompting.PromptSpec()
    store_path = tmp_path / "transcripts.jsonl"
    for rec in records[1:]:
        label = corpus.labels[corpus.row_of(rec["id"])]
        response = spec.category_for(label)
        prompting.append_transcript(store_path, prompting.CompletionTranscript(
            prompt=rec["prompt"], response=response,
            label=prompting.parse_label(response, spec), meta={},
        ))

    out_drop = tmp_path / "drop"
    assert cli.main(["eval", "--transcripts", str(store_path),
                     "--prompts", str(prompts_out / "prompts.jsonl"),
                     "--tokenized", str(pipeline["tokenized"]),
                     "--out", str(out_drop)]) == 0
    with open(out_drop / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["parse_failures"] == 1
    assert payload["total"] == 3

    out_neg = tmp_path / "neg"
    assert cli.main(["eval", "--transcripts", str(store_path),
                     "--prompts", str(prompts_out / "prompts.jsonl"),
                     "--tokenized", str(pipeline["tokenized"]),
                     "--failures-as-negative", "--out", str(out_neg)]) == 0
    with open(out_neg / "report.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["parse_failures"] == 1
    assert payload["total"] == 4


@pytest.mark.parametrize("store", ["unparsed", "missing"])
def test_eval_transcripts_with_none_evaluable_is_data_error(pipeline, tmp_path, capsys, store):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    store_path = tmp_path / "transcripts.jsonl"
    store_path.write_text("", encoding="utf-8")  # every prompt's transcript is missing
    if store == "unparsed":
        for line in (prompts_out / "prompts.jsonl").read_text(encoding="utf-8").splitlines():
            prompting.append_transcript(store_path, prompting.CompletionTranscript(
                prompt=json.loads(line)["prompt"], response="no idea", label=None, meta={},
            ))
    out = tmp_path / "report"
    capsys.readouterr()
    rc = cli.main(["eval", "--transcripts", str(store_path),
                   "--prompts", str(prompts_out / "prompts.jsonl"),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: no evaluable transcripts (all missing or unparsed)\n"
    )
    assert not (out / "report.json").exists()


def test_eval_transcripts_mistyped_record_is_data_error(pipeline, tmp_path, capsys):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    prompt = json.loads((prompts_out / "prompts.jsonl").read_text(encoding="utf-8").splitlines()[0])
    store_path = tmp_path / "transcripts.jsonl"
    store_path.write_text(json.dumps({"prompt": prompt["prompt"], "response": 5, "label": "abc"}) + "\n")
    rc = cli.main(["eval", "--transcripts", str(store_path),
                   "--prompts", str(prompts_out / "prompts.jsonl"),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "transcript store line 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["[1,2]", '"d00"', '{"id": 7, "prompt_sha256": "x"}',
                                      '{"id": "d00"}', "{not json"])
def test_eval_transcripts_malformed_prompts_line_is_data_error(pipeline, tmp_path, capsys,
                                                                bad_line):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    prompts_path = prompts_out / "prompts.jsonl"
    lines = prompts_path.read_text(encoding="utf-8").splitlines()
    prompts_path.write_text("\n".join([lines[0], bad_line, *lines[1:]]) + "\n", encoding="utf-8")
    store_path = tmp_path / "transcripts.jsonl"
    store_path.write_text("", encoding="utf-8")
    rc = cli.main(["eval", "--transcripts", str(store_path), "--prompts", str(prompts_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "prompts file line 2" in capsys.readouterr().err


def test_eval_transcripts_repeated_prompt_id_is_data_error(pipeline, tmp_path, capsys):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    prompts_path = prompts_out / "prompts.jsonl"
    lines = prompts_path.read_text(encoding="utf-8").splitlines()
    prompts_path.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
    spec = prompting.PromptSpec()
    store_path = tmp_path / "transcripts.jsonl"
    for line in lines:
        prompt = json.loads(line)["prompt"]
        prompting.append_transcript(store_path, prompting.CompletionTranscript(
            prompt=prompt, response=spec.category_for(1), label=1, meta={},
        ))
    out = tmp_path / "out"
    rc = cli.main(["eval", "--transcripts", str(store_path), "--prompts", str(prompts_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    repeated = json.loads(lines[0])["id"]
    assert f"prompts file line {len(lines) + 1}: repeated prompt id {repeated!r}" in (
        capsys.readouterr().err
    )
    assert not (out / "report.json").exists()


def test_eval_transcripts_unknown_prompt_id_is_data_error(pipeline, tmp_path, capsys):
    prompts_out = tmp_path / "prompts"
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--target-split", "test",
                     "--out", str(prompts_out)]) == 0
    prompts_path = prompts_out / "prompts.jsonl"
    lines = prompts_path.read_text(encoding="utf-8").splitlines()
    unknown = json.dumps({"id": "zz", "prompt_sha256": json.loads(lines[0])["prompt_sha256"]})
    prompts_path.write_text("\n".join([lines[0], unknown, *lines[1:]]) + "\n", encoding="utf-8")
    store_path = tmp_path / "transcripts.jsonl"
    store_path.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main(["eval", "--transcripts", str(store_path), "--prompts", str(prompts_path),
                   "--tokenized", str(pipeline["tokenized"]), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: prompts file line 2: prompt id 'zz' is not in the corpus\n"
    )
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# export


def test_export_label_frequencies(pipeline, tmp_path):
    out = tmp_path / "export"
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]),
                   "--label", "1", "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "frequencies-label1.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["label"] == 1
    counts = [entry["count"] for entry in payload["entries"]]
    assert counts == sorted(counts, reverse=True)
    assert payload["entries"][0]["token"] == "anxious"
    assert not any(entry["token"] in CALM_WORDS for entry in payload["entries"])


def test_export_salience_first_n_docs(pipeline, tmp_path):
    out = tmp_path / "export"
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]),
                   "--graph", str(pipeline["graph"]), "--docs", "2", "--k", "3",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "salience.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    docs = [n["name"] for n in payload["nodes"] if n["kind"] == "doc"]
    assert docs == ["d00", "d01"]
    for doc_id in docs:
        doc_edges = [e for e in payload["edges"]
                     if e["kind"] == "doc-word" and e["a"] == f"doc:{doc_id}"]
        assert 1 <= len(doc_edges) <= 3

    dot = (out / "salience.dot").read_text(encoding="utf-8")
    assert dot.startswith("graph salience {")
    assert "shape=box" in dot and "color=red" in dot


def test_export_salience_explicit_ids(pipeline, tmp_path):
    out = tmp_path / "export"
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]),
                   "--graph", str(pipeline["graph"]), "--docs", "d03,d10",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    with open(out / "salience.json", "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    docs = [n["name"] for n in payload["nodes"] if n["kind"] == "doc"]
    assert docs == ["d03", "d10"]


def test_export_docs_without_graph_is_usage_error(pipeline, tmp_path, capsys):
    # The salience export reads the graph build-graph wrote; it builds none of its own.
    out = tmp_path / "out"
    base = ["export", "--tokenized", str(pipeline["tokenized"]), "--docs", "3", "--label", "1"]
    assert cli.main(base + ["--out", str(out)]) == cli.EXIT_USAGE
    assert "--docs needs --graph" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(base + ["--graph", str(pipeline["graph"]), "--window", "5",
                            "--out", str(out)]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --window 5" in capsys.readouterr().err
    assert not out.exists()


def test_export_unknown_doc_id_is_data_error(pipeline, tmp_path, capsys):
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]),
                   "--graph", str(pipeline["graph"]), "--docs", "zz9",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: unknown document id: 'zz9'\n"


@pytest.mark.parametrize("k", ["-1", "x"])
def test_export_k_that_is_no_count_is_usage_error_before_any_input_is_read(
        pipeline, tmp_path, monkeypatch, capsys, k):
    calls = []
    monkeypatch.setattr(cli, "sha256_file", lambda path: calls.append(path))
    monkeypatch.setattr(cli, "load_tokenized", lambda path: calls.append(path))
    out = tmp_path / "out"
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]), "--graph",
                   str(pipeline["graph"]), "--label", "1", "--docs", "3", "--k", k, "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        f"usage error: argument --k: expected a non-negative integer, got {k!r}\n"
    assert calls == []
    assert not out.exists()


def test_failed_export_leaves_an_earlier_export_as_it_was(pipeline, tmp_path, capsys):
    out = tmp_path / "export"
    assert cli.main(["export", "--tokenized", str(pipeline["tokenized"]), "--label", "1",
                     "--out", str(out)]) == cli.EXIT_OK
    before = artifact_digests(out)
    manifest = (out / "manifest.json").read_bytes()
    # Another corpus, whose salience export fails on an unknown document.
    other = tmp_path / "other"
    rows = [{"id": f"o{i}", "text": f"dread panic {i % 3}", "label": i % 2} for i in range(6)]
    (tmp_path / "other.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert cli.main(["ingest", "--corpus", str(tmp_path / "other.jsonl"), "--min-df", "1",
                     "--out", str(other)]) == 0
    assert cli.main(["build-graph", "--tokenized", str(other / "tokenized.json"),
                     "--out", str(other)]) == 0
    capsys.readouterr()
    rc = cli.main(["export", "--tokenized", str(other / "tokenized.json"), "--label", "1",
                   "--docs", "nosuchdoc", "--graph", str(other / "graph.json"), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: unknown document id: 'nosuchdoc'\n"
    assert artifact_digests(out) == before
    assert (out / "manifest.json").read_bytes() == manifest


def test_export_docs_of_a_superscript_digit_is_an_id_list(pipeline, tmp_path, capsys):
    # "²".isdigit() holds, but it is no count: it names a document.
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]), "--docs", "²",
                   "--graph", str(pipeline["graph"]), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: unknown document id: '²'\n"


def test_key_error_in_a_handler_is_not_a_data_error(pipeline, tmp_path, monkeypatch):
    # Only ValueError and OSError are data errors; a KeyError is a programming error.
    def handler(args, config, man):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_split", handler)
    with pytest.raises(KeyError, match="a bug"):
        cli.main(["split", "--tokenized", str(pipeline["tokenized"]), "--out", str(tmp_path / "out")])


def test_export_repeated_doc_id_is_data_error(pipeline, tmp_path, capsys):
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]),
                   "--graph", str(pipeline["graph"]), "--docs", "d00,d00",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "repeated doc nodes ['d00']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "salience.json").exists()


MALFORMED_GRAPH_CASES = [
    "top-level list", "non-dict edge", "null endpoint", "fractional endpoint",
    "doc endpoint on word-word edge", "negative weight", "word pair in both orders",
]


def malformed_graph(valid: dict, case: str):
    """A copy of a valid graph document broken in one way."""
    data = json.loads(json.dumps(valid))
    edges = data["edges"]
    word_edge = next(e for e in edges if e["kind"] == "word-word")
    if case == "top-level list":
        return [data]
    if case == "non-dict edge":
        edges[0] = [edges[0]["a"], edges[0]["b"]]
    elif case == "null endpoint":
        edges[0]["a"] = None
    elif case == "fractional endpoint":
        edges[0]["a"] = 0.5
    elif case == "doc endpoint on word-word edge":
        # A document not yet linked to the edge's second word.
        linked = {e["a"] for e in edges if e["kind"] == "doc-word" and e["b"] == word_edge["b"]}
        word_edge["a"] = min(set(range(data["n_docs"])) - linked)
    elif case == "negative weight":
        edges[0]["w"] = -5
    else:
        edges.append({**word_edge, "a": word_edge["b"], "b": word_edge["a"]})
    return data


@pytest.mark.parametrize("command", ["train-gcn", "export"])
@pytest.mark.parametrize("case", MALFORMED_GRAPH_CASES)
def test_malformed_graph_is_data_error(pipeline, tmp_path, capsys, command, case):
    valid = json.loads(pipeline["graph"].read_text(encoding="utf-8"))
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(malformed_graph(valid, case)), encoding="utf-8")
    if command == "train-gcn":
        args = train_gcn_args(pipeline, tmp_path / "run", ["--identity", "--lambda", "1",
                                                           "--epochs", "1", "--seeds", "0"])
        args[args.index("--graph") + 1] = str(bad)
    else:
        args = ["export", "--tokenized", str(pipeline["tokenized"]), "--graph", str(bad),
                "--docs", "3", "--out", str(tmp_path / "run")]
    assert cli.main(args) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_misaligned_graph_is_data_error(pipeline, tmp_path, capsys):
    # A valid graph document with one word fewer than the corpus vocabulary.
    data = json.loads(pipeline["graph"].read_text(encoding="utf-8"))
    n = data["n_docs"] + data["n_words"]
    data["n_words"] -= 1
    data["nodes"].pop()
    data["edges"] = [e for e in data["edges"] if max(e["a"], e["b"]) < n - 1]
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    rc = cli.main(["export", "--tokenized", str(pipeline["tokenized"]), "--graph", str(bad),
                   "--docs", "3", "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    n_docs, n_words = data["n_docs"], data["n_words"]
    assert "does not align" in err and f"({n_docs}x{n_words} vs {n_docs}x{n_words + 1})" in err


def graph_args(command, pipeline, tokenized, graph_path, out) -> list:
    """train-gcn, ablate or export --graph over tokenized and graph_path."""
    if command == "export":
        return ["export", "--tokenized", str(tokenized), "--graph", str(graph_path),
                "--docs", "3", "--out", str(out)]
    base = train_gcn_args if command == "train-gcn" else ablate_args
    args = base(pipeline, out, ["--identity", "--lambda", "1", "--epochs", "1", "--seeds", "0"]
                if command == "train-gcn" else ["--grid", "1", "--seeds", "0", "--epochs", "1"])
    args[args.index("--tokenized") + 1] = str(tokenized)
    args[args.index("--graph") + 1] = str(graph_path)
    return args


@pytest.mark.parametrize("command", ["train-gcn", "ablate", "export"])
def test_graph_of_a_reordered_corpus_is_data_error(pipeline, tmp_path, capsys, command):
    # The same documents ingested in another order: the graph has the right
    # shape, but its rows belong to other documents.
    lines = pipeline["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines[1:] + lines[:1]), encoding="utf-8")
    assert cli.main(["ingest", "--corpus", str(shuffled), "--min-df", "1", "--keep-stopwords",
                     "--out", str(tmp_path / "ing")]) == 0
    tokenized = tmp_path / "ing" / "tokenized.json"
    assert cli.main(["split", "--tokenized", str(tokenized), "--out", str(tmp_path / "sp")]) == 0
    corpus = load_tokenized(tokenized)
    assert corpus.n_docs == N_DOCS and len(corpus.vocab) == 12
    args = graph_args(command, pipeline, tokenized, pipeline["graph"], tmp_path / "run")
    if command != "export":
        args[args.index("--split") + 1] = str(tmp_path / "sp" / "split.jsonl")
    capsys.readouterr()
    assert cli.main(args) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "data error: graph node 0 is {'id': 'd00', 'kind': 'doc'}, the corpus has doc 'd01'" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train-gcn", "ablate", "export"])
@pytest.mark.parametrize("node", [
    "d00", None, ["d00", "doc"], {"id": "d00"}, {"kind": "doc"}, {"id": "d00", "kind": "word"},
    {"id": "d00", "kind": "doc", "name": "d00"}, {"id": 0, "kind": "doc"},
])
def test_graph_with_a_malformed_node_is_data_error(pipeline, tmp_path, capsys, command, node):
    data = json.loads(pipeline["graph"].read_text(encoding="utf-8"))
    data["nodes"][0] = node
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(graph_args(command, pipeline, pipeline["tokenized"], bad, tmp_path / "run")) == 2
    assert "data error: graph node 0 is" in capsys.readouterr().err


def test_cli_artifacts_equal_reference_bytes(pipeline, tmp_path):
    corpus = load_tokenized(pipeline["tokenized"])
    tfidf = graph.compute_tfidf(corpus)
    word_edges = graph.ppmi_edges(graph.slide_windows(corpus, cli.CONFIG_DEFAULTS["window"]))
    graph_doc = oracles.reference_graph_json(corpus, tfidf, word_edges)
    assert pipeline["graph"].read_text(encoding="utf-8") == compact_json(graph_doc)
    for docs, k in (("24", 10), ("d05,d02,d17", 3), ("0", 10), ("5", 0), ("1", 50)):
        out = tmp_path / f"export-{docs}-{k}"
        assert cli.main(["export", "--tokenized", str(pipeline["tokenized"]), "--graph",
                         str(pipeline["graph"]), "--docs", docs, "--k", str(k), "--out", str(out)]) == 0
        doc_ids = corpus.doc_ids[:int(docs)] if docs.isdecimal() else docs.split(",")
        ref = oracles.reference_salience(corpus, doc_ids, tfidf, word_edges, k)
        assert (out / "salience.json").read_text(encoding="utf-8") == \
            compact_json(oracles.reference_salience_json(*ref))
        dot = (out / "salience.dot").read_text(encoding="utf-8")
        assert dot == oracles.reference_salience_dot(*ref)


def compact_json(data) -> str:
    return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"


EXPORT_JSON_CASES = [
    {},
    {"label": 1, "entries": []},
    {"label": None, "entries": [{"token": "a", "count": 3}, {"token": "b", "count": 1}]},
    {"nodes": [{"id": "d}", "kind": "doc"}], "edges": [
        {"a": "},\n      {", "b": "\u00e9\n", "w": 0.1, "kind": "doc-word"},
        {"a": "x", "b": "y", "w": -1e-300, "kind": True},
    ]},
    {"z": 1.5, "a": "s", "m": [{"k": 1}]},
    {"entries": [{}]},
    {"entries": [{"nested": {"a": 1}}]},
    {"entries": [{"list": [1, 2]}]},
    {"entries": [1, 2]},
    {"entries": {"a": 1}},
    {"entries": [[1]]},
    {1: "int key"},
]


@pytest.mark.parametrize("case", range(len(EXPORT_JSON_CASES)))
def test_export_json_writer_matches_indented_dump(tmp_path, case):
    data = EXPORT_JSON_CASES[case]
    path = tmp_path / "out.json"
    write_json(path, data, indent=2)
    assert path.read_text(encoding="utf-8") == json.dumps(data, indent=2, sort_keys=True) + "\n"
    write_json(path, data)
    compact = json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8") == compact
    assert os.listdir(tmp_path) == ["out.json"]


def test_export_json_writer_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        write_json(path, {"entries": [{"w": object()}]}, indent=2)
    with pytest.raises(ValueError, match="indent"):
        write_json(path, {"entries": []}, indent=4)

    def fail_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail_replace)
    with pytest.raises(OSError):
        write_json(path, {"entries": [{"w": 1.0}]}, indent=2)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


COMPACT_JSON = {"graph.json", "tokenized.json", "salience.json"}
INDENTED_JSON = {"manifest.json", "metrics-seed0.json", "aggregate.json", "report.json",
                 "shots.json", "frequencies-label1.json"}


def test_pipeline_json_artifacts_follow_the_json_policy(pipeline, tmp_path):
    # Data documents are compact, the reports people read are indented by 2;
    # both sort their keys and end with one newline.
    counts = tmp_path / "counts.json"
    counts.write_text('{"tn": 3, "fp": 1, "fn": 1, "tp": 3}', encoding="utf-8")
    runs = {
        "ingest": ["ingest", "--corpus", str(pipeline["corpus"]), "--min-df", "1"],
        "graph": ["build-graph", "--tokenized", str(pipeline["tokenized"])],
        "gcn": ["train-gcn", "--tokenized", str(pipeline["tokenized"]),
                "--graph", str(pipeline["graph"]), "--split", str(pipeline["split"]),
                "--identity", "--lambda", "1", "--epochs", "1", "--seeds", "0",
                "--hidden-dim", "4"],
        "prompts": ["prompts", "--corpus", str(pipeline["corpus"]),
                    "--split", str(pipeline["split"]), "--k", "3"],
        "eval": ["eval", "--counts", str(counts)],
        "export": ["export", "--tokenized", str(pipeline["tokenized"]),
                   "--graph", str(pipeline["graph"]), "--docs", "3", "--label", "1"],
    }
    seen = set()
    for name, argv in runs.items():
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
        for path in out.glob("*.json"):
            text = path.read_text(encoding="utf-8")
            data = json.loads(text)
            if path.name in COMPACT_JSON:
                want = json.dumps(data, separators=(",", ":"), sort_keys=True)
            else:
                assert path.name in INDENTED_JSON
                want = json.dumps(data, indent=2, sort_keys=True)
            assert text == want + "\n", path
            seen.add(path.name)
    assert seen == COMPACT_JSON | INDENTED_JSON


def test_metrics_write_failure_keeps_old_file(pipeline, tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics-seed0.json").write_text("old\n")
    real_replace = os.replace

    def fail_metrics_replace(src, dst):
        if os.path.basename(dst) == "metrics-seed0.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", fail_metrics_replace)
    rc = cli.main(train_gcn_args(pipeline, out, [
        "--identity", "--lambda", "1", "--epochs", "2", "--seeds", "0", "--hidden-dim", "4",
    ]))
    assert rc == cli.EXIT_DATA
    assert (out / "metrics-seed0.json").read_text() == "old\n"
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_write_manifest_failure_keeps_old_file(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, RunManifest(command="ingest", config={}, seeds=[]))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_manifest(path, RunManifest(command="split", config={"x": object()}, seeds=[]))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["manifest.json"]


# ---------------------------------------------------------------------------
# train-conv


def write_sequences(path, corpus, dim=8, seed=5) -> None:
    """Length-varied token sequences whose first coordinate leaks the label."""
    rng = np.random.default_rng(seed)
    sequences = []
    for i, doc_id in enumerate(corpus.doc_ids):
        length = int(rng.integers(3, 10))
        matrix = rng.normal(scale=0.3, size=(length, dim))
        matrix[:, 0] += 1.0 if corpus.labels[i] else -1.0
        sequences.append(convnet.TokenEmbeddingSequence(doc_id=doc_id, matrix=matrix))
    convnet.write_token_embeddings(path, sequences)


def test_train_conv_end_to_end(pipeline, tmp_path):
    corpus = load_tokenized(pipeline["tokenized"])
    seq_path = tmp_path / "sequences.bin"
    write_sequences(seq_path, corpus)

    out = tmp_path / "run"
    rc = cli.main([
        "train-conv", "--tokenized", str(pipeline["tokenized"]),
        "--split", str(pipeline["split"]), "--sequences", str(seq_path),
        "--kernel-sizes", "2,3", "--filters", "4",
        "--max-len", "16", "--epochs", "3", "--batch-size", "8", "--seeds", "0",
        "--out", str(out),
    ])
    assert rc == cli.EXIT_OK

    blocks = gcn.load_parameter_blocks(out / "conv-checkpoint-seed0.bin")
    assert set(blocks) == {"conv.K0", "conv.b0", "conv.K1", "conv.b1",
                           "dense.W", "dense.b"}
    assert blocks["conv.K0"].shape == (2, 8, 4)
    assert blocks["dense.W"].shape == (8,)

    history = (out / "conv-history-seed0.csv").read_text(encoding="utf-8").splitlines()
    assert len(history) == 1 + 3

    with open(out / "conv-aggregate.json", "r", encoding="utf-8") as fh:
        agg = json.load(fh)
    assert agg["n_runs"] == 1


def test_train_conv_takes_the_width_of_its_sequence_file(pipeline, tmp_path):
    seq_path, out = tmp_path / "sequences.bin", tmp_path / "run"
    write_sequences(seq_path, load_tokenized(pipeline["tokenized"]), dim=16)
    assert cli.main([
        "train-conv", "--tokenized", str(pipeline["tokenized"]),
        "--split", str(pipeline["split"]), "--sequences", str(seq_path),
        "--kernel-sizes", "2,3", "--filters", "4", "--epochs", "1", "--seeds", "0",
        "--out", str(out),
    ]) == cli.EXIT_OK
    blocks = gcn.load_parameter_blocks(out / "conv-checkpoint-seed0.bin")
    assert (blocks["conv.K0"].shape, blocks["conv.K1"].shape) == ((2, 16, 4), (3, 16, 4))


def test_train_conv_has_no_width_flag(pipeline, tmp_path, capsys):
    rc = cli.main(["train-conv", "--tokenized", str(pipeline["tokenized"]),
                   "--split", str(pipeline["split"]), "--sequences", str(tmp_path / "s.bin"),
                   "--embedding-dim", "8", "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_USAGE
    assert "--embedding-dim" in capsys.readouterr().err


@pytest.mark.parametrize("width", [0, 5])
def test_train_conv_sequence_file_holds_one_positive_width(pipeline, tmp_path, capsys, width):
    corpus = load_tokenized(pipeline["tokenized"])
    odd = corpus.doc_ids[2]
    rng = np.random.default_rng(5)
    sequences = [
        convnet.TokenEmbeddingSequence(doc_id, rng.normal(size=(4, width if doc_id == odd else 8)))
        for doc_id in corpus.doc_ids
    ]
    seq_path, out = tmp_path / "sequences.bin", tmp_path / "run"
    convnet.write_token_embeddings(seq_path, sequences)
    rc = cli.main(["train-conv", "--tokenized", str(pipeline["tokenized"]),
                   "--split", str(pipeline["split"]), "--sequences", str(seq_path),
                   "--epochs", "1", "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert f"data error: sequence {odd!r} has dim {width}" in capsys.readouterr().err
    assert not out.exists()


def test_train_conv_worker_pool_matches_serial(pipeline, tmp_path):
    corpus = load_tokenized(pipeline["tokenized"])
    seq_path = tmp_path / "sequences.bin"
    write_sequences(seq_path, corpus)
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert cli.main([
            "train-conv", "--tokenized", str(pipeline["tokenized"]),
            "--split", str(pipeline["split"]), "--sequences", str(seq_path),
            "--kernel-sizes", "2,3", "--filters", "4",
            "--max-len", "16", "--epochs", "2", "--batch-size", "8", "--seeds", "0,1",
            "--jobs", jobs, "--out", str(outs[jobs]),
        ]) == 0
    assert len(artifact_digests(outs["1"])) == 7
    assert artifact_digests(outs["1"]) == artifact_digests(outs["2"])


def test_train_conv_missing_train_sequences(pipeline, tmp_path, capsys):
    corpus = load_tokenized(pipeline["tokenized"])
    split = load_split(pipeline["split"])
    drop = split.ids_in("train")[0]
    rng = np.random.default_rng(5)
    sequences = [
        convnet.TokenEmbeddingSequence(doc_id=doc_id, matrix=rng.normal(size=(4, 8)))
        for doc_id in corpus.doc_ids if doc_id != drop
    ]
    seq_path = tmp_path / "sequences.bin"
    convnet.write_token_embeddings(seq_path, sequences)

    rc = cli.main([
        "train-conv", "--tokenized", str(pipeline["tokenized"]),
        "--split", str(pipeline["split"]), "--sequences", str(seq_path),
        "--kernel-sizes", "2", "--filters", "2", "--epochs", "1", "--seeds", "0",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == cli.EXIT_DATA
    assert "lack token sequences" in capsys.readouterr().err


REPEAT_CASES = {
    "train-gcn-seeds": ("train-gcn", ["--seeds", "0,0"], "seeds"),
    "train-conv-seeds": ("train-conv", ["--seeds", "0,0"], "seeds"),
    "ablate-seeds": ("ablate", ["--grid", "0,1", "--seeds", "0,0"], "seeds"),
    "ablate-grid": ("ablate", ["--grid", "1,1", "--seeds", "0"], "grid values"),
}


@pytest.mark.parametrize("case", sorted(REPEAT_CASES))
def test_repeated_seeds_or_grid_values_are_data_errors(pipeline, tmp_path, monkeypatch, capsys,
                                                       case):
    command, extra, word = REPEAT_CASES[case]
    calls = []
    for module, name in ((gcn, "train"), (convnet, "train_conv")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    out = tmp_path / "run"
    if command == "train-conv":
        seq_path = tmp_path / "sequences.bin"
        write_sequences(seq_path, load_tokenized(pipeline["tokenized"]))
        args = ["train-conv", "--tokenized", str(pipeline["tokenized"]),
                "--split", str(pipeline["split"]), "--sequences", str(seq_path),
                "--kernel-sizes", "2", "--filters", "2", "--epochs", "1", "--out", str(out)]
    elif command == "train-gcn":
        args = train_gcn_args(pipeline, out, ["--embeddings", str(pipeline["embeddings"]),
                                              "--epochs", "1"])
    else:
        args = ablate_args(pipeline, out)[:-2] + ["--out", str(out)]
    rc = cli.main(args + extra)
    assert rc == cli.EXIT_DATA
    assert f"{word} must not repeat" in capsys.readouterr().err
    assert calls == []
    assert not out.exists() or not [p for p in os.listdir(out) if p != "manifest.json"]


@pytest.mark.parametrize("flags, message", [
    (["--jobs", "0"], "jobs must be at least 1"),
    (["--seeds", "0,0"], "seeds must not repeat, got [0, 0]"),
], ids=["jobs-0", "seeds-repeat"])
@pytest.mark.parametrize("command", ["train-gcn", "train-conv", "ablate"])
def test_bad_jobs_or_seeds_are_reported_before_any_input_is_read(pipeline, tmp_path, capsys,
                                                                 command, flags, message):
    out, missing = tmp_path / "run", str(tmp_path / "missing.bin")
    if command == "train-conv":
        args = ["train-conv", "--tokenized", str(pipeline["tokenized"]),
                "--split", str(pipeline["split"]), "--sequences", missing, "--out", str(out)]
    else:
        base = train_gcn_args if command == "train-gcn" else ablate_args
        args = base(pipeline, out, ["--embeddings", str(pipeline["embeddings"])]
                    if command == "train-gcn" else [])
        args[args.index("--graph") + 1] = missing
    assert cli.main(args + flags) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["train-gcn", "train-conv", "ablate"])
def test_negative_seed_is_refused_before_any_input_is_read(pipeline, tmp_path, monkeypatch, capsys,
                                                           command, via):
    out, seq_path = tmp_path / "run", tmp_path / "sequences.bin"
    write_sequences(seq_path, load_tokenized(pipeline["tokenized"]))
    calls = []
    for module, name in ((gcn, "train"), (convnet, "train_conv"), (cli, "load_tokenized")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    if command == "train-conv":
        args = ["train-conv", "--tokenized", str(pipeline["tokenized"]),
                "--split", str(pipeline["split"]), "--sequences", str(seq_path),
                "--epochs", "1", "--out", str(out)]
    elif command == "train-gcn":
        args = train_gcn_args(pipeline, out, ["--embeddings", str(pipeline["embeddings"]),
                                              "--epochs", "1"])
    else:
        args = ablate_args(pipeline, out)
        del args[args.index("--seeds"):args.index("--seeds") + 2]
    if via == "flag":
        args, seeds = args + ["--seeds", "-1"], [-1]
    else:
        seeds = [2, -1]
        (tmp_path / "config.json").write_text(json.dumps({"seeds": seeds}), encoding="utf-8")
        args += ["--config", str(tmp_path / "config.json")]
    assert cli.main(args) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: seeds must not be negative, got {seeds}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key", [("split", "split_seed"), ("prompts", "prompt_seed")])
def test_negative_split_or_prompt_seed_is_refused_before_any_input_is_read(
        pipeline, tmp_path, monkeypatch, capsys, command, key, via):
    calls = []
    for name in ("load_tokenized", "load_corpus"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    out = tmp_path / "run"
    args = {
        "split": ["split", "--tokenized", str(pipeline["tokenized"])],
        "prompts": ["prompts", "--corpus", str(pipeline["corpus"]),
                    "--split", str(pipeline["split"]), "--k", "3"],
    }[command] + ["--out", str(out)]
    if via == "flag":
        args += ["--seed", "-1"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({key: -1}), encoding="utf-8")
        args += ["--config", str(tmp_path / "config.json")]
    assert cli.main(args) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {key} must not be negative, got -1\n"
    assert calls == []
    assert not out.exists()


NON_FINITE_MESSAGES = {
    "learning_rate": "learning_rate must be positive and finite, got {}",
    "weight_decay": "weight_decay must be finite and not negative, got {}",
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [
    ("train-gcn", "learning_rate"), ("train-gcn", "weight_decay"),
    ("ablate", "learning_rate"), ("ablate", "weight_decay"), ("train-conv", "learning_rate"),
])
def test_non_finite_learning_rate_or_weight_decay_is_a_config_error(
        pipeline, tmp_path, monkeypatch, capsys, command, key, value, via):
    out, seq_path = tmp_path / "run", tmp_path / "sequences.bin"
    write_sequences(seq_path, load_tokenized(pipeline["tokenized"]))
    calls = []
    for module, name in ((gcn, "train"), (convnet, "train_conv"), (cli, "load_tokenized")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    args = {
        "train-gcn": train_gcn_args(pipeline, out, ["--embeddings", str(pipeline["embeddings"]),
                                                    "--epochs", "1"]),
        "ablate": ablate_args(pipeline, out),
        "train-conv": ["train-conv", "--tokenized", str(pipeline["tokenized"]),
                       "--split", str(pipeline["split"]), "--sequences", str(seq_path),
                       "--epochs", "1", "--out", str(out)],
    }[command]
    if via == "flag":
        args += ["--" + key.replace("_", "-"), value]
    else:
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        (tmp_path / "config.json").write_text(json.dumps({key: float(value)}), encoding="utf-8")
        args += ["--config", str(tmp_path / "config.json")]
    assert cli.main(args) == cli.EXIT_DATA
    message = NON_FINITE_MESSAGES[key].format(float(value))
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-gcn", "ablate", "train-conv", "eval-pred",
                                     "eval-transcripts"])
def test_unlabeled_scored_document_is_named(pipeline, tmp_path, capsys, command):
    corpus = load_tokenized(pipeline["tokenized"])
    unlabeled = load_split(pipeline["split"]).ids_in("test")[1]
    corpus.labels[corpus.row_of(unlabeled)] = None
    tokenized, seq_path = tmp_path / "tokenized.json", tmp_path / "sequences.bin"
    save_tokenized(tokenized, corpus)
    write_sequences(seq_path, corpus)
    pred_path, store = tmp_path / "pred.csv", tmp_path / "store.jsonl"
    pred_path.write_text("id,pred\n" + "".join(f"{d},1\n" for d in corpus.doc_ids),
                         encoding="utf-8")
    store.write_text("", encoding="utf-8")
    assert cli.main(["prompts", "--corpus", str(pipeline["corpus"]),
                     "--split", str(pipeline["split"]), "--out", str(tmp_path / "prompts")]) == 0
    out = tmp_path / "run"
    args = {
        "train-gcn": train_gcn_args(pipeline, out, ["--identity", "--lambda", "1"]),
        "ablate": ablate_args(pipeline, out),
        "train-conv": ["train-conv", "--tokenized", "", "--split", str(pipeline["split"]),
                       "--sequences", str(seq_path), "--out", str(out)],
        "eval-pred": ["eval", "--pred", str(pred_path), "--tokenized", "",
                      "--split", str(pipeline["split"]), "--out", str(out)],
        "eval-transcripts": ["eval", "--transcripts", str(store), "--tokenized", "",
                             "--prompts", str(tmp_path / "prompts" / "prompts.jsonl"),
                             "--out", str(out)],
    }[command]
    args[args.index("--tokenized") + 1] = str(tokenized)
    capsys.readouterr()
    assert cli.main(args) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: document {unlabeled!r} is unlabeled\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("ablate", ["--grid", "", "--seeds", "0"]),
    ("ablate", ["--grid", "0,1", "--seeds", ""]),
    ("train-gcn", ["--seeds", ""]),
], ids=["ablate-grid", "ablate-seeds", "train-gcn-seeds"])
def test_empty_seeds_or_grid_are_data_errors(pipeline, tmp_path, capsys, command, extra):
    out = tmp_path / "run"
    if command == "ablate":
        args = ablate_args(pipeline, out)
    else:
        args = train_gcn_args(pipeline, out, ["--embeddings", str(pipeline["embeddings"]),
                                              "--epochs", "1"])
    rc = cli.main(args + extra)
    assert rc == cli.EXIT_DATA
    assert "must hold at least one" in capsys.readouterr().err
    assert not out.exists() or not [p for p in os.listdir(out) if p != "manifest.json"]


@pytest.mark.parametrize("empty, ratios", [("test", "0.8,0.2,0"), ("train", "0,0.5,0.5")])
@pytest.mark.parametrize("command", ["train-gcn", "ablate", "train-conv"])
def test_split_without_train_or_test_documents_is_refused_before_training(
        pipeline, tmp_path, monkeypatch, capsys, command, empty, ratios):
    assert cli.main(["split", "--tokenized", str(pipeline["tokenized"]), "--ratios", ratios,
                     "--out", str(tmp_path / "sp")]) == 0
    split_path = str(tmp_path / "sp" / "split.jsonl")
    calls = []
    for module, name in ((gcn, "train"), (convnet, "train_conv")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1))
    out = tmp_path / "run"
    if command == "train-conv":
        seq_path = tmp_path / "sequences.bin"
        write_sequences(seq_path, load_tokenized(pipeline["tokenized"]))
        args = ["train-conv", "--tokenized", str(pipeline["tokenized"]), "--split", split_path,
                "--sequences", str(seq_path), "--out", str(out)]
    else:
        base = train_gcn_args if command == "train-gcn" else ablate_args
        args = base(pipeline, out, ["--embeddings", str(pipeline["embeddings"])]
                    if command == "train-gcn" else [])
        args[args.index("--split") + 1] = split_path
    capsys.readouterr()
    assert cli.main(args) == cli.EXIT_DATA
    assert f"data error: the split has no {empty} documents" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# crash-safe writers


def _writers(pipeline, tmp_path) -> dict:
    """Per file name, a call that writes that file into tmp_path (and maybe others)."""
    corpus = load_tokenized(pipeline["tokenized"])
    emb = graph.EmbeddingMatrix(np.ones((2, 3)))
    seqs = [convnet.TokenEmbeddingSequence("d00", np.ones((2, 3)))]
    counts = tmp_path / "counts.json"
    counts.write_text('{"tn": 3, "fp": 1, "fn": 1, "tp": 3}', encoding="utf-8")
    out = ["--out", str(tmp_path)]
    return {
        "tokenized.json": lambda: save_tokenized(tmp_path / "tokenized.json", corpus),
        "split.jsonl": lambda: save_split(tmp_path / "split.jsonl", load_split(pipeline["split"])),
        "emb.bin": lambda: graph.write_embeddings(tmp_path / "emb.bin", emb),
        "seqs.bin": lambda: convnet.write_token_embeddings(tmp_path / "seqs.bin", seqs),
        "vocab.csv": lambda: cli.main(["ingest", "--corpus", str(pipeline["corpus"]), *out]),
        "prompts.jsonl": lambda: cli.main(["prompts", "--corpus", str(pipeline["corpus"]), *out]),
        "report.txt": lambda: cli.main(["eval", "--counts", str(counts), *out]),
        "salience.dot": lambda: cli.main(
            ["export", "--tokenized", str(pipeline["tokenized"]), "--graph", str(pipeline["graph"]),
             "--docs", "3", *out]
        ),
        "ablation.csv": lambda: cli.main(ablate_args(pipeline, tmp_path)),
    }


@pytest.mark.parametrize("name", [
    "tokenized.json", "split.jsonl", "emb.bin", "seqs.bin",
    "vocab.csv", "prompts.jsonl", "report.txt", "salience.dot", "ablation.csv",
])
def test_failed_write_keeps_old_artifact(pipeline, tmp_path, monkeypatch, name):
    # The rename of the new file fails: the old one stays and no temp file is left.
    write = _writers(pipeline, tmp_path)[name]
    target = tmp_path / name
    target.write_bytes(b"old\n")
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("rename failed")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    try:
        status = write()
    except OSError:
        status = cli.EXIT_DATA
    assert status == cli.EXIT_DATA
    assert target.read_bytes() == b"old\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# installed entry point


def run_module(argv) -> subprocess.CompletedProcess:
    """python -m stressgraph.cli argv in a fresh interpreter, with text output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "stressgraph.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_module_entry_point_prints_help():
    proc = run_module(["--help"])
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "export" in proc.stdout


# ---------------------------------------------------------------------------
# module layout


def test_cli_stays_under_its_line_cap_and_reads_no_file_itself():
    # cli.py holds the parser, the handlers' wiring and main; every input file
    # is read by the module that owns its format, where it can be fuzzed.
    with open(cli.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert len(source.splitlines()) <= 632
    for call in ("open(", "json.load", "json.loads", "csv.reader"):
        assert call not in source, call
