"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test prints "[PASS] acceptance NN: ..." (or FAIL) on the live terminal so
the gate can be read at a glance. Tolerances and runtime ceilings are part of
the contract and are asserted, not just observed.
"""

import contextlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from oracles import brute_normalize_dense, edge_triples, make_corpus, window_sets
from test_cli import artifact_digests, write_corpus

from stressgraph import cli, convnet, evaluation, gcn, prompting
from stressgraph.corpus import SPLIT_NAMES, stratified_split
from stressgraph.gcn import TrainingConfig
from stressgraph.graph import (
    EmbeddingMatrix,
    assemble_adjacency,
    build_node_features,
    compute_tfidf,
    normalize_adjacency,
    ppmi,
    ppmi_edges,
    slide_windows,
    write_embeddings_csv,
)

EXAMPLE_TEXT = (
    "I have to be straight if I want things in life. Being a lesbian will "
    "mean having a life where everything I want will be extremely hard to get."
)


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def run(number: int, name: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"\n[{verdict}] acceptance {number:02d}: {name}")

    return run


def random_graph_instance(rng, n_docs: int, n_tokens: int, window: int):
    """Random corpus pushed through the real graph pipeline."""
    sequences = [
        [int(t) for t in rng.integers(0, n_tokens, size=int(rng.integers(1, 9)))]
        for _ in range(n_docs)
    ]
    corpus = make_corpus(sequences, n_tokens=n_tokens)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window))
    adj = normalize_adjacency(
        assemble_adjacency(tfidf, word_edges, n_docs, len(corpus.vocab))
    )
    return corpus, adj


def fd_gradients(loss_fn, arrays: dict, h: float = 1e-5) -> dict:
    out = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        # Index arr itself: ravel() of a non-contiguous view is a copy.
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_fn()
            arr[idx] = orig - h
            down = loss_fn()
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * h)
        out[name] = grad
    return out


def assert_per_coordinate_close(analytic: np.ndarray, fd: np.ndarray, context: str):
    # The 1e-6 floor keeps exactly-zero coordinates (e.g. detached branches)
    # from dividing finite-difference noise by itself.
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    worst = float(np.max(np.abs(analytic - fd) / scale))
    assert worst < 1e-4, f"{context}: worst per-coordinate relative error {worst:.3e}"


def trained_toy_state(lam: float, seed: int = 0, epochs: int = 25):
    """Small separable corpus trained through the real trainer."""
    rng = np.random.default_rng(40 + seed)
    n_docs = 12
    sequences, labels = [], []
    for i in range(n_docs):
        cls = i % 2
        sequences.append([3 * cls + int(t) for t in rng.integers(0, 3, size=5)])
        labels.append(cls)
    corpus = make_corpus(sequences, n_tokens=6, labels=labels)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, 4))
    adj = normalize_adjacency(assemble_adjacency(tfidf, word_edges, n_docs, 6))
    emb = np.zeros((n_docs, 2))
    emb[np.arange(n_docs), labels] = 1.0
    emb += rng.normal(scale=0.1, size=emb.shape)
    embeddings = EmbeddingMatrix(emb)
    features = build_node_features(embeddings, n_docs, 6)
    masks = {
        "train": np.array([i < 6 for i in range(n_docs)]),
        "val": np.array([6 <= i < 9 for i in range(n_docs)]),
        "test": np.array([i >= 9 for i in range(n_docs)]),
    }
    config = TrainingConfig(lam=lam, epochs=epochs, hidden_dim=8, seed=seed)
    result = gcn.train(features, adj, labels, masks, config)
    return features, adj, embeddings, labels, masks, config, result


def test_acceptance_01_published_metrics_row(announce):
    with announce(1, "published confusion counts reproduce the reported row"):
        start = time.perf_counter()
        report = evaluation.metrics(
            evaluation.ConfusionMatrix(tn=665, fp=18, fn=159, tp=27), "weighted"
        )
        assert report.precision == pytest.approx(0.7627, abs=5e-4)
        assert report.recall == pytest.approx(0.7963, abs=5e-4)
        assert report.f1 == pytest.approx(0.7437, abs=5e-4)
        assert report.accuracy == pytest.approx(0.7963, abs=5e-4)
        assert time.perf_counter() - start < 1.0


def test_acceptance_02_ppmi_matches_brute_force(announce):
    with announce(2, "window counts and PPMI match brute-force enumeration"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n_docs = int(rng.integers(1, 9))
            n_tokens = int(rng.integers(2, 13))
            window = int(rng.integers(2, 6))
            sequences = [
                [int(t) for t in rng.integers(0, n_tokens, size=int(rng.integers(0, 15)))]
                for _ in range(n_docs)
            ]
            corpus = make_corpus(sequences, n_tokens=n_tokens)
            stats = slide_windows(corpus, window)

            windows = window_sets(sequences, window)
            assert stats.total_windows == len(windows)
            for token in range(n_tokens):
                want = sum(1 for w in windows if token in w)
                assert stats.token_counts[token] == want
            for i in range(n_tokens):
                for j in range(i + 1, n_tokens):
                    want = sum(1 for w in windows if i in w and j in w)
                    assert stats.pair_counts[i, j] == want

                    n_ij = want
                    if n_ij == 0:
                        expected = None
                    else:
                        n_i = stats.token_counts[i]
                        n_j = stats.token_counts[j]
                        pmi = np.log(n_ij * len(windows) / (n_i * n_j))
                        expected = pmi if pmi > 0 else None
                    got = ppmi(stats, i, j)
                    if expected is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(expected, abs=1e-12)
        assert time.perf_counter() - start < 10.0


def test_acceptance_03_gradients_match_finite_differences(announce):
    with announce(3, "analytic gradients match central differences"):
        start = time.perf_counter()

        for case in range(20):
            rng = np.random.default_rng(300 + case)
            n_docs = int(rng.integers(3, 6))
            n_tokens = int(rng.integers(3, 7))
            corpus, adj = random_graph_instance(rng, n_docs, n_tokens, window=3)
            identity = case % 4 == 3
            if identity:
                embeddings, lam = None, 1.0
            else:
                embeddings = EmbeddingMatrix(rng.normal(size=(n_docs, 3)))
                lam = float(rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]))
            features = build_node_features(embeddings, n_docs, len(corpus.vocab))
            params, head = gcn.init_parameters(
                features.dim, 3, 2, None if identity else 3, seed=case
            )
            labels = [int(x) for x in rng.integers(0, 2, size=n_docs)]
            train_mask = rng.random(n_docs) < 0.6
            if not train_mask.any():
                train_mask[0] = True
            weight_decay = float(rng.choice([0.0, 0.05]))
            dropout_mask = None
            if case % 3 == 0:
                n_nodes = features.n_docs + features.n_words
                dropout_mask = (rng.random((n_nodes, 3)) >= 0.5) / 0.5

            arrays = {"gcn.W1": params.W1, "gcn.b1": params.b1,
                      "gcn.W2": params.W2, "gcn.b2": params.b2}
            if head is not None:
                arrays.update({"head.W": head.W, "head.b": head.b})
            for arr in arrays.values():
                arr += rng.normal(scale=0.05, size=arr.shape)

            _, grads = gcn.loss_and_gradients(
                features, adj, params, head, labels, train_mask, lam,
                weight_decay=weight_decay, dropout_mask=dropout_mask,
            )
            fd = fd_gradients(
                lambda: gcn.loss_and_gradients(
                    features, adj, params, head, labels, train_mask,
                    lam, weight_decay=weight_decay, dropout_mask=dropout_mask,
                )[0],
                arrays,
            )
            for name in arrays:
                assert_per_coordinate_close(grads[name], fd[name], f"graph case {case} {name}")

        for case in range(20):
            rng = np.random.default_rng(600 + case)
            config = convnet.ConvHeadConfig(
                kernel_sizes=(2, 3) if case % 2 else (2,),
                n_filters=2 + case % 2,
                embedding_dim=2 + case % 3,
                max_len=8,
                dropout=0.5,
                seed=case,
            )
            params = convnet.init_conv_params(config)
            blocks = convnet.param_blocks(params)
            # Zero biases sit exactly on the ReLU/max kink; jitter off it.
            for arr in blocks.values():
                arr += rng.normal(scale=0.1, size=arr.shape)
            docs = [
                convnet.TokenEmbeddingSequence(
                    doc_id=f"d{i}",
                    matrix=rng.normal(size=(int(rng.integers(1, 7)), config.embedding_dim)),
                )
                for i in range(int(rng.integers(2, 5)))
            ]
            labels = [int(x) for x in rng.integers(0, 2, size=len(docs))]
            dropout_masks = None
            if case % 3 == 0:
                dropout_masks = [
                    (rng.random(params.concat_dim) >= 0.5) / 0.5 for _ in docs
                ]

            _, grads = convnet.batch_loss_and_gradients(docs, labels, params, dropout_masks)
            fd = fd_gradients(
                lambda: convnet.batch_loss_and_gradients(docs, labels, params, dropout_masks)[0],
                blocks,
            )
            for name in blocks:
                assert_per_coordinate_close(grads[name], fd[name], f"conv case {case} {name}")

        assert time.perf_counter() - start < 30.0


def test_acceptance_04_interpolation_boundary_identities(announce):
    with announce(4, "interpolation boundaries reduce to the single branches"):
        features, adj, embeddings, labels, masks, config, result = trained_toy_state(lam=0.5)

        z_b = gcn.linear_forward(embeddings, result.head)
        z_g = gcn.gcn_forward(features, adj, result.gcn)
        fused_0 = gcn.fused_probabilities(features, adj, result.gcn, result.head, 0.0)
        fused_1 = gcn.fused_probabilities(features, adj, result.gcn, result.head, 1.0)
        assert np.array_equal(gcn.predict(fused_0), gcn.predict(z_b))
        assert np.array_equal(gcn.predict(fused_1), gcn.predict(z_g))

        seeds = [0, 1]
        base = replace(config, lam=0.5, epochs=15)
        rows = gcn.ablate_lambda(
            [0.0, 1.0], base, features, adj, labels, masks, seeds
        )
        for row in rows:
            accs, f1s = [], []
            for seed in seeds:
                single = gcn.train(
                    features, adj, labels, masks,
                    replace(base, lam=row.lam, seed=seed),
                )
                report = gcn.evaluate(
                    features, adj, single.gcn, single.head, row.lam,
                    labels, masks["test"],
                )
                accs.append(report.accuracy)
                f1s.append(report.f1)
            assert abs(row.accuracy - float(np.mean(accs))) < 1e-12
            assert abs(row.f1 - float(np.mean(f1s))) < 1e-12


def test_acceptance_05_synthetic_end_to_end_learning(announce):
    with announce(5, "two-topic synthetic corpus is learned across seeds"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        n_docs, per_topic = 400, 50
        sequences, labels = [], []
        for i in range(n_docs):
            topic = i % 2
            sequences.append(
                [per_topic * topic + int(t) for t in rng.integers(0, per_topic, size=8)]
            )
            labels.append(topic)
        corpus = make_corpus(sequences, n_tokens=2 * per_topic, labels=labels)
        tfidf = compute_tfidf(corpus)
        word_edges = ppmi_edges(slide_windows(corpus, 20))
        adj = normalize_adjacency(
            assemble_adjacency(tfidf, word_edges, n_docs, 2 * per_topic)
        )
        split = stratified_split(corpus.doc_ids, labels, (0.70, 0.15, 0.15), seed=0)
        masks = {
            name: np.asarray(split.mask(corpus.doc_ids, name), dtype=bool)
            for name in SPLIT_NAMES
        }

        noisy = list(labels)
        train_rows = np.flatnonzero(masks["train"])
        flips = np.random.default_rng(99).choice(
            train_rows, size=int(round(0.10 * train_rows.size)), replace=False
        )
        for row in flips:
            noisy[int(row)] = 1 - noisy[int(row)]

        features_id = build_node_features(None, n_docs, 2 * per_topic)
        for seed in range(5):
            config = TrainingConfig(lam=1.0, epochs=200, dropout=0.5, hidden_dim=200, seed=seed)
            result = gcn.train(features_id, adj, noisy, masks, config)
            report = gcn.evaluate(
                features_id, adj, result.gcn, result.head, 1.0, labels, masks["test"]
            )
            assert report.f1 >= 0.95, f"seed {seed}: graph-only F1 {report.f1:.4f}"

        emb = np.zeros((n_docs, 2))
        emb[np.arange(n_docs), labels] = 1.0
        emb += np.random.default_rng(12).normal(scale=0.25, size=emb.shape)
        embeddings = EmbeddingMatrix(emb)
        features_ext = build_node_features(embeddings, n_docs, 2 * per_topic)
        f1_by_lam = {}
        for lam in (0.0, 0.2, 1.0):
            per_seed = []
            for seed in range(5):
                config = TrainingConfig(lam=lam, epochs=100, dropout=0.5, hidden_dim=100, seed=seed)
                result = gcn.train(features_ext, adj, noisy, masks, config)
                report = gcn.evaluate(
                    features_ext, adj, result.gcn, result.head, lam,
                    labels, masks["test"],
                )
                per_seed.append(report.f1)
            f1_by_lam[lam] = per_seed
        for seed in range(5):
            floor = min(f1_by_lam[0.0][seed], f1_by_lam[1.0][seed])
            assert f1_by_lam[0.2][seed] >= floor - 1e-12, (
                f"seed {seed}: fused {f1_by_lam[0.2][seed]:.4f} under branch floor {floor:.4f}"
            )

        assert time.perf_counter() - start < 120.0


def test_acceptance_06_structural_graph_invariants(announce):
    with announce(6, "adjacency structure holds over randomized corpora"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n_docs = int(rng.integers(1, 6))
            n_tokens = int(rng.integers(2, 9))
            sequences = [
                [int(t) for t in rng.integers(0, n_tokens, size=int(rng.integers(0, 11)))]
                for _ in range(n_docs)
            ]
            corpus = make_corpus(sequences, n_tokens=n_tokens)
            tfidf = compute_tfidf(corpus)
            word_edges = ppmi_edges(slide_windows(corpus, int(rng.integers(2, 7))))
            n_words = len(corpus.vocab)
            adj = assemble_adjacency(tfidf, word_edges, n_docs, n_words)

            dense = adj.toarray()
            assert np.array_equal(dense, dense.T)
            assert np.array_equal(np.diag(dense), np.ones(n_docs + n_words))
            doc_block = dense[:n_docs, :n_docs].copy()
            np.fill_diagonal(doc_block, 0.0)
            assert not doc_block.any()
            assert all(v > 0 for _, _, v in edge_triples(word_edges))

            norm = normalize_adjacency(adj).toarray()
            np.testing.assert_allclose(norm, norm.T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                norm, brute_normalize_dense(dense), rtol=0, atol=1e-12
            )
        assert time.perf_counter() - start < 10.0


def test_acceptance_07_stratification_and_test_isolation(announce):
    with announce(7, "splits stay stratified and test labels never leak"):
        rng = np.random.default_rng(7)
        ratios = (0.70, 0.15, 0.15)
        for case in range(50):
            # Each class needs at least one member per split.
            n = int(rng.integers(8, 120))
            n_pos = int(rng.integers(3, n - 2))
            labels = [1] * n_pos + [0] * (n - n_pos)
            rng.shuffle(labels)
            ids = [f"d{i}" for i in range(n)]
            split = stratified_split(ids, labels, ratios, seed=case)
            for cls in (0, 1):
                cls_ids = {i for i, lab in zip(ids, labels) if lab == cls}
                for name, ratio in zip(SPLIT_NAMES, ratios):
                    got = len(cls_ids & set(split.ids_in(name)))
                    assert abs(got - ratio * len(cls_ids)) <= 1.0

        features, adj, embeddings, labels, masks, config, result = trained_toy_state(lam=0.4)
        flipped = [
            1 - lab if masks["test"][i] else lab for i, lab in enumerate(labels)
        ]
        again = gcn.train(features, adj, flipped, masks, config)
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(result.gcn, name).tobytes() == getattr(again.gcn, name).tobytes()
        assert result.head.W.tobytes() == again.head.W.tobytes()
        assert result.head.b.tobytes() == again.head.b.tobytes()
        assert result.best_epoch == again.best_epoch


def test_acceptance_08_significance_testing(announce):
    with announce(8, "paired t-test and Bonferroni match the oracle"):
        a = [1.0, 0.0, 1.0, 0.0, 1.0]
        b = [0.0, 0.0, 0.0, 0.0, 0.0]
        result = evaluation.paired_ttest(a, b)
        assert result.df == 4
        assert result.statistic == pytest.approx(2.4495, abs=1e-4)
        assert result.p_value == pytest.approx(0.0705, abs=1e-4)
        oracle = 2.0 * scipy.stats.t.sf(abs(result.statistic), result.df)
        assert result.p_value == pytest.approx(oracle, abs=1e-4)

        for p, m in [(0.0705, 3), (0.03, 5), (0.5, 3), (1.0, 2), (0.0, 7)]:
            assert evaluation.bonferroni(p, m) == min(1.0, p * m)
        corrected = evaluation.paired_ttest(a, b, comparisons=3)
        assert corrected.corrected_p == min(1.0, corrected.p_value * 3)


def test_acceptance_09_prompt_byte_exactness(announce, tmp_path):
    with announce(9, "prompt builders reproduce the golden bytes"):
        import os

        golden_dir = os.path.join(os.path.dirname(__file__), "golden")
        with open(os.path.join(golden_dir, "zero_shot.txt"), "rb") as fh:
            assert prompting.build_zero_shot(EXAMPLE_TEXT).encode("utf-8") == fh.read()

        words = ["zero", "one", "two", "three", "four"]
        shots = []
        for i, word in enumerate(words):
            shots.append(prompting.Shot(f"p{i}", f"Positive example {word}.", 1))
            shots.append(prompting.Shot(f"n{i}", f"Negative example {word}.", 0))
        prompt = prompting.build_few_shot(
            prompting.ShotSet(shots=tuple(shots)), "Query text goes here."
        )
        with open(os.path.join(golden_dir, "few_shot_10.txt"), "rb") as fh:
            assert prompt.encode("utf-8") == fh.read()

        pool = [
            prompting.Shot(f"s{i}", f"candidate {i}", int(i % 2)) for i in range(12)
        ]
        for k, (want_pos, want_neg) in ((3, (2, 1)), (10, (5, 5))):
            chosen = prompting.compose_shots(pool, k, seed=0)
            pos = sum(1 for s in chosen.shots if s.label == 1)
            assert (pos, len(chosen.shots) - pos) == (want_pos, want_neg)

        spec = prompting.PromptSpec()
        for label in (0, 1):
            assert prompting.parse_label(spec.category_for(label), spec) == label


def test_acceptance_10_command_rerun_determinism(announce, tmp_path):
    with announce(10, "identical reruns produce identical artifact digests"):

        def run_pipeline(root):
            root.mkdir(parents=True, exist_ok=True)
            corpus = root / "corpus.jsonl"
            write_corpus(corpus)
            outs = {}

            outs["ingest"] = root / "ingest"
            assert cli.main(["ingest", "--corpus", str(corpus), "--min-df", "1",
                             "--keep-stopwords", "--out", str(outs["ingest"])]) == 0
            tokenized = outs["ingest"] / "tokenized.json"

            outs["split"] = root / "splitdir"
            assert cli.main(["split", "--tokenized", str(tokenized),
                             "--out", str(outs["split"])]) == 0

            outs["graph"] = root / "graphdir"
            assert cli.main(["build-graph", "--tokenized", str(tokenized),
                             "--out", str(outs["graph"])]) == 0

            emb_rng = np.random.default_rng(7)
            emb = emb_rng.normal(scale=0.1, size=(24, 4))
            emb_path = root / "embeddings.csv"
            write_embeddings_csv(emb_path, EmbeddingMatrix(values=emb))

            outs["train"] = root / "train"
            assert cli.main([
                "train-gcn", "--tokenized", str(tokenized),
                "--graph", str(outs["graph"] / "graph.json"),
                "--split", str(outs["split"] / "split.jsonl"),
                "--embeddings", str(emb_path), "--epochs", "4", "--seeds", "0,1",
                "--hidden-dim", "8", "--out", str(outs["train"]),
            ]) == 0

            outs["prompts"] = root / "prompts"
            assert cli.main([
                "prompts", "--corpus", str(corpus),
                "--split", str(outs["split"] / "split.jsonl"),
                "--k", "3", "--seed", "1", "--out", str(outs["prompts"]),
            ]) == 0

            outs["export"] = root / "export"
            assert cli.main([
                "export", "--tokenized", str(tokenized),
                "--graph", str(outs["graph"] / "graph.json"),
                "--label", "1", "--docs", "2", "--out", str(outs["export"]),
            ]) == 0

            counts = root / "counts.json"
            counts.write_text(
                json.dumps({"tn": 665, "fp": 18, "fn": 159, "tp": 27}),
                encoding="utf-8",
            )
            outs["eval"] = root / "eval"
            assert cli.main(["eval", "--counts", str(counts),
                             "--out", str(outs["eval"])]) == 0
            return outs

        first = run_pipeline(tmp_path / "first")
        second = run_pipeline(tmp_path / "second")
        for command in first:
            assert artifact_digests(first[command]) == artifact_digests(second[command]), command
