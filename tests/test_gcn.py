"""Tests for the fused GCN + linear-head model: forward math, gradients, training."""

import csv
import math
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceAdam,
    dense_fused_reference,
    explicit_node_features,
    make_corpus,
    reference_train,
    word_block,
)
from stressgraph import gcn as gcn_module
from stressgraph.evaluation import MetricsReport
from stressgraph.gcn import (
    AdamState,
    DivergenceError,
    GCNParameters,
    LinearHead,
    ProbabilityMatrix,
    TrainingConfig,
    ablate_lambda,
    evaluate,
    fused_probabilities,
    gcn_forward,
    init_parameters,
    interpolate,
    linear_forward,
    load_checkpoint,
    load_parameter_blocks,
    loss_and_gradients,
    nll_loss,
    param_blocks,
    predict,
    save_checkpoint,
    train,
    write_ablation_csv,
    write_history_csv,
)
from stressgraph.graph import (
    EmbeddingMatrix,
    assemble_adjacency,
    build_node_features,
    compute_tfidf,
    normalize_adjacency,
    ppmi_edges,
    slide_windows,
)


def identity_adj(n: int) -> sp.csr_array:
    return sp.csr_array(np.eye(n))


def pipeline_setup(seed: int, n_docs: int = 4, n_tokens: int = 4, identity: bool = False):
    """Random small corpus run through the real graph pipeline."""
    rng = np.random.default_rng(seed)
    sequences = [
        [int(t) for t in rng.integers(0, n_tokens, size=int(rng.integers(1, 7)))]
        for _ in range(n_docs)
    ]
    corpus = make_corpus(sequences, n_tokens=n_tokens)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=3))
    n_words = len(corpus.vocab)
    adj = normalize_adjacency(assemble_adjacency(tfidf, word_edges, n_docs, n_words))
    embeddings = EmbeddingMatrix(rng.normal(size=(n_docs, 3)))
    features = build_node_features(None if identity else embeddings, n_docs, n_words)
    labels = [int(x) for x in rng.integers(0, 2, size=n_docs)]
    return features, adj, embeddings, labels, rng


# --------------------------------------------------------------- forward


def test_gcn_forward_single_node_example():
    # X = [1], W1 = [1], W2 = [[2, 0]]: logits [2, 0] after a unit self-loop.
    feats = build_node_features(EmbeddingMatrix(np.array([[1.0]])), n_docs=1, n_words=0)
    params = GCNParameters(
        W1=np.array([[1.0]]), b1=np.zeros(1), W2=np.array([[2.0, 0.0]]), b2=np.zeros(2)
    )
    probs = gcn_forward(feats, identity_adj(1), params)
    want = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
    np.testing.assert_allclose(probs.values, [want], rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs.values, [[0.8808, 0.1192]], rtol=0, atol=5e-5)


def test_gcn_forward_zero_weights_uniform():
    feats = build_node_features(EmbeddingMatrix(np.ones((2, 3))), n_docs=2, n_words=1)
    params = GCNParameters(W1=np.zeros((3, 4)), b1=np.zeros(4), W2=np.zeros((4, 2)), b2=np.zeros(2))
    probs = gcn_forward(feats, identity_adj(3), params)
    np.testing.assert_allclose(probs.values, 0.5, rtol=0, atol=0)


def test_gcn_forward_rows_are_stochastic():
    features, adj, _, _, rng = pipeline_setup(0)
    gcn, _ = init_parameters(features.dim, 5, 2, None, seed=1)
    probs = gcn_forward(features, adj, gcn)
    assert probs.values.shape == (4, 2)
    np.testing.assert_allclose(probs.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs.values >= 0.0)


def test_gcn_forward_identity_matches_explicit_eye():
    features, adj, _, labels, _ = pipeline_setup(3, identity=True)
    n = adj.shape[0]
    explicit = explicit_node_features(features)  # full identity over docs and words
    assert np.array_equal(explicit, np.eye(n))
    gcn, _ = init_parameters(n, 4, 2, None, seed=2)
    got = gcn_forward(features, adj, gcn)
    want, _, _ = dense_fused_reference(
        adj.toarray(), explicit, features.n_docs, gcn, None, None, 1.0, labels,
        [True] * features.n_docs,
    )
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-15)


def test_linear_forward_example():
    emb = EmbeddingMatrix(np.array([[1000.0], [0.0]]))
    head = LinearHead(W=np.array([[1.0, 0.0]]), b=np.zeros(2))
    probs = linear_forward(emb, head)
    # Shift-stable softmax survives huge logits.
    np.testing.assert_allclose(probs.values[0], [1.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs.values[1], [0.5, 0.5], rtol=0, atol=1e-12)


def test_linear_forward_dim_mismatch():
    with pytest.raises(ValueError):
        linear_forward(EmbeddingMatrix(np.zeros((2, 3))), LinearHead(W=np.zeros((4, 2)), b=np.zeros(2)))


def test_interpolate_example_and_boundaries():
    z_g = ProbabilityMatrix(np.array([[0.7, 0.3]]))
    z_b = ProbabilityMatrix(np.array([[0.1, 0.9]]))
    fused = interpolate(z_g, z_b, 0.2)
    np.testing.assert_allclose(fused.values, [[0.22, 0.78]], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(interpolate(z_g, z_b, 1.0).values, z_g.values)
    np.testing.assert_array_equal(interpolate(z_g, z_b, 0.0).values, z_b.values)


def test_interpolate_validates_lam_and_shape():
    z = ProbabilityMatrix(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        interpolate(z, z, 1.5)
    with pytest.raises(ValueError):
        interpolate(z, z, -0.1)
    with pytest.raises(ValueError):
        interpolate(z, ProbabilityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]])), 0.5)


def test_probability_matrix_validates_rows():
    with pytest.raises(ValueError):
        ProbabilityMatrix(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        ProbabilityMatrix(np.array([0.5, 0.5]))


def test_nll_loss_values():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    # Uniform row: -ln(1/2 + eps), which is ln 2 up to the 1e-12 stabilizer.
    assert nll_loss(probs, [0, 1], [True, False]) == pytest.approx(math.log(2), abs=1e-10)
    want = -(math.log(0.5) + math.log(0.75)) / 2
    assert nll_loss(probs, [0, 1], [True, True]) == pytest.approx(want, abs=1e-10)
    with pytest.raises(ValueError):
        nll_loss(probs, [0, 1], [False, False])


def test_predict_breaks_ties_low():
    probs = ProbabilityMatrix(np.array([[0.5, 0.5], [0.2, 0.8]]))
    np.testing.assert_array_equal(predict(probs), [0, 1])


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(lam=1.2)
    with pytest.raises(ValueError):
        TrainingConfig(lam=-0.1)
    with pytest.raises(ValueError):
        TrainingConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("hidden_dim", 0), ("weight_decay", -1e-4), ("patience", -1),
])
def test_training_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


def test_init_parameters_draw_order_stable():
    # Adding a head must not disturb the GCN draws for the same seed.
    gcn_a, head_a = init_parameters(5, 4, 2, None, seed=9)
    gcn_b, head_b = init_parameters(5, 4, 2, 3, seed=9)
    assert head_a is None and head_b is not None
    np.testing.assert_array_equal(gcn_a.W1, gcn_b.W1)
    np.testing.assert_array_equal(gcn_a.W2, gcn_b.W2)
    assert np.all(gcn_a.b1 == 0.0) and np.all(head_b.b == 0.0)
    # Glorot bound for W1: sqrt(6 / (5 + 4)).
    assert np.abs(gcn_b.W1).max() <= math.sqrt(6.0 / 9.0)


# ------------------------------------------------------------- gradients


def fd_gradients(loss_fn, arrays: dict, h: float = 1e-5) -> dict:
    """Central finite differences over every entry of every parameter block."""
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


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


@pytest.mark.parametrize("case", range(8))
def test_gradients_match_finite_differences(case):
    identity = case % 2 == 1
    weight_decay = 0.07 if case % 4 >= 2 else 0.0
    features, adj, embeddings, labels, rng = pipeline_setup(100 + case, identity=identity)
    # Identity features carry no document embeddings, so that model is GCN-only.
    lam = 1.0 if identity else [0.0, 0.2, 0.5, 1.0][case % 4]
    gcn, head = init_parameters(features.dim, 3, 2, None if identity else embeddings.dim, seed=case)
    train_mask = np.zeros(4, dtype=bool)
    train_mask[: 2 + case % 3] = True

    dropout_mask = None
    if case % 3 == 0:
        n = features.n_docs + features.n_words
        dropout_mask = (rng.random((n, 3)) >= 0.5) / 0.5

    _, grads = loss_and_gradients(
        features, adj, gcn, head, labels, train_mask, lam,
        weight_decay=weight_decay, dropout_mask=dropout_mask,
    )
    arrays = param_blocks(gcn, head)
    fd = fd_gradients(
        lambda: loss_and_gradients(
            features, adj, gcn, head, labels, train_mask, lam,
            weight_decay=weight_decay, dropout_mask=dropout_mask,
        )[0],
        arrays,
    )
    for name in arrays:
        assert relative_error(grads[name], fd[name]) < 1e-4, name


def test_lambda_zero_gives_exactly_zero_gcn_gradients():
    features, adj, embeddings, labels, _ = pipeline_setup(42)
    gcn, head = init_parameters(features.dim, 3, 2, embeddings.dim, seed=0)
    _, grads = loss_and_gradients(
        features, adj, gcn, head, labels, [True] * 4, lam=0.0
    )
    assert np.all(grads["gcn.W1"] == 0.0)
    assert np.all(grads["gcn.W2"] == 0.0)
    assert np.all(grads["gcn.b1"] == 0.0)
    assert np.all(grads["gcn.b2"] == 0.0)
    assert np.any(grads["head.W"] != 0.0)


def test_lambda_one_gives_exactly_zero_head_gradients():
    features, adj, embeddings, labels, _ = pipeline_setup(43)
    gcn, head = init_parameters(features.dim, 3, 2, embeddings.dim, seed=0)
    _, grads = loss_and_gradients(
        features, adj, gcn, head, labels, [True] * 4, lam=1.0
    )
    assert np.all(grads["head.W"] == 0.0)
    assert np.all(grads["head.b"] == 0.0)


def test_weight_decay_adds_to_loss_and_gradients():
    features, adj, embeddings, labels, _ = pipeline_setup(44)
    gcn, head = init_parameters(features.dim, 3, 2, embeddings.dim, seed=0)
    args = (features, adj, gcn, head, labels, [True] * 4, 0.2)
    loss0, grads0 = loss_and_gradients(*args, weight_decay=0.0)
    loss1, grads1 = loss_and_gradients(*args, weight_decay=0.1)
    norm2 = (gcn.W1 ** 2).sum() + (gcn.W2 ** 2).sum() + (head.W ** 2).sum()
    assert loss1 == pytest.approx(loss0 + 0.05 * norm2, rel=1e-12)
    np.testing.assert_allclose(grads1["gcn.W1"], grads0["gcn.W1"] + 0.1 * gcn.W1, atol=1e-15)
    # Biases are never decayed.
    np.testing.assert_array_equal(grads1["gcn.b1"], grads0["gcn.b1"])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", ["embedding", "identity"])
def test_fused_pass_matches_dense_reference(layout, seed):
    # Embedding features take the document-row slice and its transpose;
    # identity features take the full adjacency and, carrying no document
    # embeddings, a GCN-only model.
    identity = layout == "identity"
    features, adj, embeddings, labels, rng = pipeline_setup(
        200 + seed, n_docs=6, n_tokens=5, identity=identity
    )
    gcn, head = init_parameters(features.dim, 4, 2, None if identity else embeddings.dim, seed=seed)
    train_mask = np.arange(features.n_docs) % 3 != 2
    dropout_mask = (rng.random((adj.shape[0], 4)) >= 0.5) / 0.5
    lam = 1.0 if identity else 0.3
    reference = (adj.toarray(), explicit_node_features(features), features.n_docs, gcn, head,
                 features.doc_embeddings, lam, labels, train_mask)

    want_z, _, _ = dense_fused_reference(*reference)
    got_z = fused_probabilities(features, adj, gcn, head, lam)
    np.testing.assert_allclose(got_z.values, want_z, rtol=0, atol=1e-12)

    _, want_loss, want_grads = dense_fused_reference(*reference, dropout_mask=dropout_mask)
    loss, grads = loss_and_gradients(
        features, adj, gcn, head, labels, train_mask, lam, dropout_mask=dropout_mask
    )
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-9, atol=1e-12, err_msg=name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.floats(0.05, 0.9))
def test_ppmi_reweighting_with_fixed_row_sums_leaves_prediction(seed, delta):
    # With embedding features the word-word block reaches Z only through the
    # degrees in D^-1/2. Moving PPMI weight around a 4-cycle with alternating
    # signs changes A_hat but no row sum, so Z must not move.
    rng = np.random.default_rng(seed)
    n_docs, n_words = 5, 6
    corpus = make_corpus(
        [[int(t) for t in rng.integers(0, n_words, size=6)] for _ in range(n_docs)], n_tokens=n_words
    )
    tfidf = compute_tfidf(corpus)
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    weights = rng.uniform(1.0, 2.0, size=len(cycle))

    def adjacency(shift):
        edges = [(i, j, w + sign * shift)
                 for (i, j), w, sign in zip(cycle, weights, (1, -1, 1, -1))]
        return normalize_adjacency(
            assemble_adjacency(tfidf, word_block(edges + [(4, 5, 0.7)], n_words), n_docs, n_words)
        )

    base, moved = adjacency(0.0), adjacency(delta)
    assert not np.allclose(base.toarray(), moved.toarray(), rtol=0, atol=1e-3)
    embeddings = EmbeddingMatrix(rng.normal(size=(n_docs, 3)))
    features = build_node_features(embeddings, n_docs, n_words)
    gcn, _ = init_parameters(features.dim, 4, 2, None, seed=seed)
    np.testing.assert_allclose(
        gcn_forward(features, moved, gcn).values, gcn_forward(features, base, gcn).values,
        rtol=0, atol=1e-12,
    )


def test_adam_matches_reference_update():
    rng = np.random.default_rng(0)
    w_ref = rng.normal(size=4)
    params = {"w": w_ref.copy()}
    state = AdamState()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        grad = rng.normal(size=4)
        state.step(params, {"w": grad}, lr=0.01)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        w_ref = w_ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(params["w"], w_ref, rtol=0, atol=1e-15)


def test_adam_in_place_matches_reference_expressions():
    # 50 steps over blocks of several shapes, bit for bit; grads are never written.
    rng = np.random.default_rng(3)
    shapes = {"W": (7, 5), "b": (5,), "one": (1,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ref_params = {name: arr.copy() for name, arr in params.items()}
    state = AdamState()
    ref = ReferenceAdam(0.9, 0.999, 1e-8)
    for _ in range(50):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                 for name, shape in shapes.items()}
        before = {name: g.copy() for name, g in grads.items()}
        state.step(params, grads, lr=0.01)
        ref.step(ref_params, grads, lr=0.01)
        for name in shapes:
            assert np.array_equal(grads[name], before[name]), name
            assert np.array_equal(params[name], ref_params[name]), name
            assert np.array_equal(state.m[name], ref.m[name]), name
            assert np.array_equal(state.v[name], ref.v[name]), name


# -------------------------------------------------------------- training


def separable_setup(n_docs: int = 12):
    """Two token groups, labels follow the group, embeddings echo the label."""
    rng = np.random.default_rng(0)
    sequences = []
    labels = []
    for i in range(n_docs):
        cls = i % 2
        base = 0 if cls == 0 else 3
        sequences.append([base + int(t) for t in rng.integers(0, 3, size=5)])
        labels.append(cls)
    corpus = make_corpus(sequences, n_tokens=6)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=4))
    n_words = len(corpus.vocab)
    adj = normalize_adjacency(assemble_adjacency(tfidf, word_edges, n_docs, n_words))
    emb = np.zeros((n_docs, 2))
    emb[np.arange(n_docs), labels] = 1.0
    emb += rng.normal(scale=0.05, size=emb.shape)
    embeddings = EmbeddingMatrix(emb)
    features = build_node_features(embeddings, n_docs, n_words)
    base = int(0.5 * n_docs)
    masks = {
        "train": np.array([i < base for i in range(n_docs)]),
        "val": np.array([base <= i < base + n_docs // 4 for i in range(n_docs)]),
        "test": np.array([i >= base + n_docs // 4 for i in range(n_docs)]),
    }
    return features, adj, embeddings, labels, masks


def test_train_zero_epochs_returns_init():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=0, seed=3)
    result = train(features, adj, labels, masks, config)
    gcn0, head0 = init_parameters(features.dim, config.hidden_dim, 2, embeddings.dim, 3)
    np.testing.assert_array_equal(result.gcn.W1, gcn0.W1)
    np.testing.assert_array_equal(result.head.W, head0.W)
    assert result.history == []
    assert result.best_epoch is None


def test_train_is_deterministic():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=12, seed=5)
    a = train(features, adj, labels, masks, config)
    b = train(features, adj, labels, masks, config)
    np.testing.assert_array_equal(a.gcn.W1, b.gcn.W1)
    np.testing.assert_array_equal(a.gcn.W2, b.gcn.W2)
    np.testing.assert_array_equal(a.head.W, b.head.W)
    assert [(h.epoch, h.loss, h.val_f1) for h in a.history] == [
        (h.epoch, h.loss, h.val_f1) for h in b.history
    ]


def test_train_loss_improves_without_dropout():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=60, dropout=0.0, seed=0)
    result = train(features, adj, labels, masks, config)
    assert result.history[-1].loss < result.history[0].loss


def test_train_requires_lam_one_without_embeddings():
    features, adj, _, labels, masks = separable_setup()
    identity = build_node_features(None, features.n_docs, features.n_words)
    with pytest.raises(ValueError):
        train(identity, adj, labels, masks, TrainingConfig(lam=0.5, epochs=1))
    result = train(identity, adj, labels, masks, TrainingConfig(lam=1.0, epochs=2))
    assert result.head is None


def test_identity_features_reject_a_linear_head():
    # Identity features carry no document embeddings for the head to read.
    features, adj, _, labels, _ = pipeline_setup(45, identity=True)
    gcn, head = init_parameters(features.dim, 3, 2, 3, seed=0)
    with pytest.raises(ValueError, match="a linear head requires document embeddings"):
        loss_and_gradients(features, adj, gcn, head, labels, [True] * 4, 0.5)
    with pytest.raises(ValueError, match="a linear head requires document embeddings"):
        fused_probabilities(features, adj, gcn, head, 0.5)


def test_train_best_epoch_prefers_latest_tie():
    # Once validation F1 saturates, continued training keeps the newest weights.
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=40, dropout=0.0, seed=0)
    result = train(features, adj, labels, masks, config)
    best = max(h.val_f1 for h in result.history)
    assert result.history[-1].val_f1 == best
    assert result.best_epoch == result.history[-1].epoch


def test_train_patience_stops_early():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=500, dropout=0.0, seed=0, patience=5)
    result = train(features, adj, labels, masks, config)
    assert len(result.history) < 500
    assert result.best_epoch == result.history[-1].epoch


TRAIN_REFERENCE_CASES = {
    "embedding": dict(identity=False, lam=0.3, patience=None, val=True),
    "embedding-patience": dict(identity=False, lam=0.3, patience=2, val=True),
    "identity": dict(identity=True, lam=1.0, patience=None, val=True),
    "identity-no-val": dict(identity=True, lam=1.0, patience=None, val=False),
    "embedding-no-val-patience": dict(identity=False, lam=0.5, patience=3, val=False),
}


@pytest.mark.parametrize("case", sorted(TRAIN_REFERENCE_CASES))
def test_train_matches_reference_loop(case):
    # Reusing the validation pass's layer 1 must not move a bit of training.
    spec = TRAIN_REFERENCE_CASES[case]
    features, adj, embeddings, labels, rng = pipeline_setup(
        len(case), n_docs=16, n_tokens=10, identity=spec["identity"]
    )
    split = np.arange(16) % 4
    masks = {"train": split < 2, "test": split == 3}
    if spec["val"]:
        masks["val"] = split == 2
    config = TrainingConfig(
        lam=spec["lam"], epochs=25, hidden_dim=8, learning_rate=0.05, weight_decay=1e-3,
        patience=spec["patience"], seed=len(case),
    )
    result = train(features, adj, labels, masks, config)
    history, ref_gcn, ref_head, best_epoch = reference_train(features, adj, labels, masks, config)
    assert [(h.epoch, h.loss, h.val_acc, h.val_f1) for h in result.history] == history
    assert result.best_epoch == best_epoch
    if spec["patience"] is not None:
        assert len(history) < config.epochs
    for name in ("W1", "b1", "W2", "b2"):
        assert np.array_equal(getattr(result.gcn, name), getattr(ref_gcn, name)), name
    if ref_head is None:
        assert result.head is None
    else:
        assert np.array_equal(result.head.W, ref_head.W)
        assert np.array_equal(result.head.b, ref_head.b)


def test_train_never_reads_test_labels():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=10, seed=1)
    a = train(features, adj, labels, masks, config)
    flipped = [1 - lab if masks["test"][i] else lab for i, lab in enumerate(labels)]
    b = train(features, adj, flipped, masks, config)
    np.testing.assert_array_equal(a.gcn.W1, b.gcn.W1)
    np.testing.assert_array_equal(a.gcn.W2, b.gcn.W2)
    np.testing.assert_array_equal(a.head.W, b.head.W)
    assert [h.loss for h in a.history] == [h.loss for h in b.history]
    assert [h.val_f1 for h in a.history] == [h.val_f1 for h in b.history]


def test_train_val_labels_do_not_touch_loss():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=10, seed=1)
    a = train(features, adj, labels, masks, config)
    flipped = [1 - lab if masks["val"][i] else lab for i, lab in enumerate(labels)]
    b = train(features, adj, flipped, masks, config)
    assert [h.loss for h in a.history] == [h.loss for h in b.history]


def test_train_divergence_reports_epoch():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=5, weight_decay=1e308, seed=0)
    with pytest.raises(DivergenceError) as exc:
        train(features, adj, labels, masks, config)
    assert exc.value.epoch == 0


def test_evaluate_returns_weighted_report():
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=30, dropout=0.0))
    report = evaluate(
        features, adj, result.gcn, result.head, 0.2, labels, masks["test"]
    )
    assert isinstance(report, MetricsReport)
    assert report.averaging == "weighted"
    assert 0.0 <= report.f1 <= 1.0
    assert report.total == int(np.sum(masks["test"]))


# ------------------------------------------------------- fusion/ablation


def test_fused_boundaries_match_single_branches():
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=8))
    z_g = gcn_forward(features, adj, result.gcn)
    z_b = linear_forward(embeddings, result.head)
    only_gcn = fused_probabilities(features, adj, result.gcn, result.head, 1.0)
    only_head = fused_probabilities(features, adj, result.gcn, result.head, 0.0)
    np.testing.assert_array_equal(only_gcn.values, z_g.values)
    np.testing.assert_array_equal(only_head.values, z_b.values)


def test_ablate_matches_individual_runs():
    features, adj, embeddings, labels, masks = separable_setup()
    base = TrainingConfig(epochs=6, dropout=0.0)
    grid = [1.0, 0.0, 0.5]
    seeds = [0, 1]
    rows = ablate_lambda(grid, base, features, adj, labels, masks, seeds)
    assert [r.lam for r in rows] == [0.0, 0.5, 1.0]
    from dataclasses import replace

    for row in rows:
        accs, f1s = [], []
        for seed in seeds:
            cfg = replace(base, lam=row.lam, seed=seed)
            result = train(features, adj, labels, masks, cfg)
            rep = evaluate(
                features, adj, result.gcn, result.head, row.lam, labels, masks["test"]
            )
            accs.append(rep.accuracy)
            f1s.append(rep.f1)
        assert abs(row.accuracy - np.mean(accs)) < 1e-12
        assert abs(row.f1 - np.mean(f1s)) < 1e-12
        assert abs(row.acc_std - np.std(accs, ddof=1)) < 1e-12


def test_ablate_rejects_out_of_range_grid_before_training(monkeypatch):
    features, adj, embeddings, labels, masks = separable_setup()
    calls = []
    real_train = gcn_module.train

    def counting_train(*args, **kwargs):
        calls.append(1)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(gcn_module, "train", counting_train)
    with pytest.raises(ValueError, match="grid"):
        ablate_lambda(
            [0.2, 1.5], TrainingConfig(epochs=1), features, adj, labels, masks, [0]
        )
    assert calls == []


# ------------------------------------------------------------------- I/O


def test_checkpoint_roundtrip(tmp_path):
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=4))
    path = tmp_path / "model.bin"
    save_checkpoint(path, result.gcn, result.head)
    gcn, head = load_checkpoint(path)
    for got, want in (
        (gcn.W1, result.gcn.W1), (gcn.b1, result.gcn.b1),
        (gcn.W2, result.gcn.W2), (gcn.b2, result.gcn.b2),
        (head.W, result.head.W), (head.b, result.head.b),
    ):
        np.testing.assert_array_equal(got, want)


def test_checkpoint_roundtrip_without_head(tmp_path):
    gcn, _ = init_parameters(4, 3, 2, None, seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(path, gcn, None)
    back, head = load_checkpoint(path)
    assert head is None
    np.testing.assert_array_equal(back.W1, gcn.W1)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"BAD!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_oversized_block_header(tmp_path):
    # 24 bytes: one block "w" whose header declares 2**60 float64 values. The
    # size is checked against the file before any read of that length.
    path = tmp_path / "model.bin"
    path.write_bytes(b"TGCK" + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack("<BQ", 1, 2**60))
    assert path.stat().st_size == 24
    with pytest.raises(ValueError, match="truncated checkpoint block 'w'"):
        load_parameter_blocks(path)


@pytest.mark.parametrize("cut", [5, 11, 13, 14, 20, 30, -1])
def test_checkpoint_rejects_truncation(tmp_path, cut):
    # Cuts inside the file header, a block header, a name, a shape and the
    # payload all raise ValueError; the 5-byte file is the magic plus 1 byte.
    gcn, _ = init_parameters(3, 2, 2, None, seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(path, gcn, None)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_parameter_blocks(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    gcn, _ = init_parameters(3, 2, 2, None, seed=0)
    path = tmp_path / "model.bin"
    save_checkpoint(path, gcn, None)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_parameter_blocks(path)


def test_checkpoint_rejects_duplicate_block(tmp_path):
    block = struct.pack("<H", 1) + b"w" + struct.pack("<BQ", 1, 1) + struct.pack("<d", 1.0)
    path = tmp_path / "model.bin"
    path.write_bytes(b"TGCK" + struct.pack("<II", 1, 2) + block + block)
    with pytest.raises(ValueError, match="duplicate checkpoint block 'w'"):
        load_parameter_blocks(path)


GCN_BLOCKS = gcn_module.param_blocks(*init_parameters(3, 2, 2, None, seed=0))


@pytest.mark.parametrize("blocks, message", [
    ({"w": np.ones(1)}, "lacks block 'gcn.W1'"),
    ({**GCN_BLOCKS, "gcn.W1": np.ones(3)}, "'gcn.W1' has shape"),
    ({**GCN_BLOCKS, "gcn.b1": np.zeros(3)}, "'gcn.b1' has shape"),
    ({**GCN_BLOCKS, "gcn.W2": np.ones((3, 2))}, "'gcn.W2' has shape"),
    ({**GCN_BLOCKS, "gcn.W2": np.ones((3, 3, 3)), "gcn.b2": np.zeros(5)}, "'gcn.W2' has shape"),
    ({**GCN_BLOCKS, "gcn.b2": np.zeros(5)}, "'gcn.b2' has shape"),
    ({**GCN_BLOCKS, "head.W": np.ones((4, 2))}, "lacks block 'head.b'"),
    ({**GCN_BLOCKS, "head.b": np.zeros(2)}, "lacks block 'head.W'"),
    ({**GCN_BLOCKS, "head.W": np.ones((4, 3)), "head.b": np.zeros(3)}, "'head.W' has shape"),
    ({**GCN_BLOCKS, "head.W": np.ones((4, 2)), "head.b": np.zeros((2, 1))}, "'head.b' has shape"),
])
def test_load_checkpoint_rejects_missing_or_misshaped_blocks(tmp_path, blocks, message):
    # Well-formed TGCK files whose blocks do not make a model.
    path = tmp_path / "model.bin"
    gcn_module.save_parameter_blocks(path, blocks)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


TGCK_HEADER = struct.pack("<I", 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(TGCK_HEADER.__add__)))
@example(TGCK_HEADER + struct.pack("<IH", 2**32 - 1, 1) + b"w" + struct.pack("<BQ", 1, 1)
         + b"\x00" * 8)
@example(TGCK_HEADER + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<BQQ", 2, 2**62, 2**62))
@example(TGCK_HEADER + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<BQQ", 2, 0, 2**64 - 1))
@example(TGCK_HEADER + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B", 255))
@example(TGCK_HEADER + struct.pack("<IH", 1, 2**16 - 1) + b"w")
@example(TGCK_HEADER + struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<B", 0)
         + b"\x00" * 8)
def test_checkpoint_fuzz_loads_or_raises_value_error(tmp_path_factory, body):
    # Any bytes after the magic either load or raise ValueError; declared
    # sizes are checked against the file, so nothing huge is allocated.
    path = tmp_path_factory.mktemp("tgck") / "model.bin"
    path.write_bytes(b"TGCK" + body)
    try:
        blocks = load_parameter_blocks(path)
    except ValueError:
        return
    total = sum(8 * arr.size for arr in blocks.values())
    assert total <= len(body) and all(arr.dtype == np.float64 for arr in blocks.values())


def _failing_writes(tmp_path):
    """(path, good write, failing write) per writer; the failing one raises midway."""
    gcn, _ = init_parameters(3, 2, 2, None, seed=0)
    history = [gcn_module.EpochStats(0, 0.5, 1.0, 1.0)]
    rows = [gcn_module.AblationRow(0.5, 1.0, 1.0, 0.0, 0.0)]
    return {
        "checkpoint": (
            tmp_path / "model.bin",
            lambda p: save_checkpoint(p, gcn, None),
            lambda p: gcn_module.save_parameter_blocks(p, {"gcn.W1": gcn.W1, "bad": "x"}),
        ),
        "history": (
            tmp_path / "history.csv",
            lambda p: write_history_csv(p, history),
            lambda p: write_history_csv(p, [gcn_module.EpochStats(0, 0.25, 0.5, 0.5),
                                            gcn_module.EpochStats(1, "x", 0, 0)]),
        ),
        "ablation": (
            tmp_path / "ablation.csv",
            lambda p: write_ablation_csv(p, rows),
            lambda p: write_ablation_csv(p, [gcn_module.AblationRow(0.25, 0.5, 0.5, 0.0, 0.0),
                                             gcn_module.AblationRow("x", 0, 0, 0, 0)]),
        ),
    }


@pytest.mark.parametrize("writer", ["checkpoint", "history", "ablation"])
def test_failed_write_keeps_old_file(tmp_path, writer):
    path, good, bad = _failing_writes(tmp_path)[writer]
    good(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        bad(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_identity_features_are_never_materialized():
    # np.eye over 6000 nodes alone would be 288 MB; the implicit identity
    # keeps features plus one forward pass to a few MB.
    n_docs, n_words = 2000, 4000
    rng = np.random.default_rng(0)
    rows = np.repeat(np.arange(n_docs), 8)
    cols = rng.integers(0, n_words, size=rows.size)
    tfidf = sp.csr_array((rng.uniform(0.5, 1.5, size=rows.size), (rows, cols)),
                         shape=(n_docs, n_words))
    ppmi_block = word_block([(0, 1, 1.0)], n_words)
    adj = normalize_adjacency(assemble_adjacency(tfidf, ppmi_block, n_docs, n_words))
    gcn, _ = init_parameters(n_docs + n_words, 16, 2, None, seed=0)
    tracemalloc.start()
    try:
        features = build_node_features(None, n_docs, n_words)
        probs = gcn_forward(features, adj, gcn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.values.shape == (n_docs, 2)
    assert peak < 32 * 2**20


def test_history_csv_format(tmp_path):
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=3))
    path = tmp_path / "history.csv"
    write_history_csv(path, result.history)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss", "val_acc", "val_f1"]
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(result.history[0].loss)


def test_ablation_csv_format(tmp_path):
    features, adj, embeddings, labels, masks = separable_setup()
    rows_in = ablate_lambda(
        [0.0, 1.0], TrainingConfig(epochs=2), features, adj, labels, masks, [0]
    )
    path = tmp_path / "ablation.csv"
    write_ablation_csv(path, rows_in)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "accuracy", "f1", "acc_std", "f1_std"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
